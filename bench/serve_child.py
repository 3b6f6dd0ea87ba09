"""The server under test, in its own process: public ``QueryService`` + ``QueryServer``.

Default config, the benchmark's dataset.  Prints one JSON line with the bound
port as soon as it listens (answers come from the fallback tier until the
background build lands) and one more when the fast path is live; runs until
SIGINT/SIGTERM, then stops the service, which closes the index.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal

from repro import QueryServer, QueryService

from bench import hygiene, inputs


async def serve(scale: inputs.Scale) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    service = QueryService(inputs.dataset(scale))
    server = QueryServer(service, port=0)
    async with service, server:
        print(json.dumps({"port": server.address[1]}), flush=True)
        await service.wait_ready()
        with service.active_snapshot as snapshot:
            index_mb = snapshot.labels.memory_estimate().total_bytes / 1e6
        print(json.dumps({"ready": service.ready, "index_mb": index_mb}), flush=True)
        await stop.wait()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    hygiene.adopt_orphans()
    try:
        asyncio.run(serve(inputs.SMOKE if args.smoke else inputs.FULL))
    finally:
        hygiene.shutdown()
