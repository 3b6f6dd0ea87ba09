"""The JSON-lines TCP front: framing, ops, in-band errors, concurrency."""

from __future__ import annotations

import asyncio
import json

from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.serve.server import QueryServer
from repro.serve.service import QueryService


async def _rpc(reader, writer, obj):
    writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


def run(coro):
    return asyncio.run(coro)


async def _booted(graph, **service_kwargs):
    service = QueryService(graph, **service_kwargs)
    await service.start()
    await service.wait_ready()
    server = QueryServer(service)
    await server.start()
    return service, server


class TestProtocol:
    def test_query_update_stats_round_trip(self):
        async def scenario():
            graph = grid_road_network(8, 8, seed=5)
            service, server = await _booted(graph)
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                pong = await _rpc(reader, writer, {"op": "ping"})
                assert pong["ok"] and pong["version"] >= 1

                before = await _rpc(reader, writer, {"op": "query", "s": 0, "t": 63})
                assert before["ok"] and before["tier"] == "fast"

                u, v, w = next(iter(graph.edges()))
                committed = await _rpc(
                    reader, writer, {"op": "update", "updates": [[u, v, w * 4]]}
                )
                assert committed["ok"] and committed["version"] > before["version"]

                after = await _rpc(reader, writer, {"op": "query", "s": u, "t": v})
                assert after["version"] == committed["version"]

                batch = await _rpc(
                    reader, writer, {"op": "batch_query", "pairs": [[0, 63], [u, v]]}
                )
                assert batch["ok"] and batch["distances"][1] == after["distance"]

                stats = await _rpc(reader, writer, {"op": "stats"})
                assert stats["ok"] and stats["stats"]["batches_committed"] == 1
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_unreachable_crosses_wire_as_null(self):
        async def scenario():
            graph = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 2.0)])
            service, server = await _booted(graph)
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                answer = await _rpc(reader, writer, {"op": "query", "s": 0, "t": 3})
                assert answer["ok"] and answer["distance"] is None
                batch = await _rpc(
                    reader, writer, {"op": "batch_query", "pairs": [[0, 3], [2, 3]]}
                )
                assert batch["distances"] == [None, 2.0]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_errors_answer_in_band_and_keep_connection(self):
        async def scenario():
            graph = grid_road_network(8, 8, seed=5)
            service, server = await _booted(graph)
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                bad_op = await _rpc(reader, writer, {"op": "teleport"})
                assert not bad_op["ok"] and bad_op["code"] == "ServiceError"

                bad_vertex = await _rpc(reader, writer, {"op": "query", "s": -1, "t": 2})
                assert not bad_vertex["ok"] and bad_vertex["code"] == "VertexNotFoundError"

                missing_field = await _rpc(reader, writer, {"op": "query", "s": 1})
                assert not missing_field["ok"]

                u, v, _ = next(iter(graph.edges()))
                nan_weight = await _rpc(
                    reader, writer, {"op": "update", "updates": [[u, v, "nan"]]}
                )
                assert not nan_weight["ok"] and nan_weight["code"] == "InvalidWeightError"

                # The connection survived four failures.
                assert (await _rpc(reader, writer, {"op": "ping"}))["ok"]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_unparseable_line_closes_connection(self):
        async def scenario():
            graph = grid_road_network(8, 8, seed=5)
            service, server = await _booted(graph)
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert not response["ok"] and "bad JSON" in response["error"]
                assert await reader.readline() == b""  # EOF: connection dropped
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_many_concurrent_connections(self):
        async def scenario():
            graph = grid_road_network(8, 8, seed=6)
            service, server = await _booted(graph)
            try:
                async def client(k: int):
                    reader, writer = await asyncio.open_connection(*server.address)
                    for i in range(20):
                        s, t = (k * 3 + i) % 64, (k * 5 + 2 * i) % 64
                        answer = await _rpc(reader, writer, {"op": "query", "s": s, "t": t})
                        assert answer["ok"]
                    writer.close()
                    await writer.wait_closed()
                    return 20

                async def updater():
                    reader, writer = await asyncio.open_connection(*server.address)
                    for i in range(6):
                        u, v, w = list(graph.edges())[i]
                        answer = await _rpc(
                            reader, writer, {"op": "update", "updates": [[u, v, w * 1.5]]}
                        )
                        assert answer["ok"]
                    writer.close()
                    await writer.wait_closed()
                    return 0

                counts = await asyncio.gather(*(client(k) for k in range(8)), updater())
                assert sum(counts) == 160
            finally:
                await server.stop()
                await service.stop()

        run(scenario())
