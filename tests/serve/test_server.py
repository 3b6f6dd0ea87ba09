"""The JSON-lines TCP front: framing, ops, in-band errors, concurrency."""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

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
                # json.dumps writes the bare NaN token, which parses as a number.
                nan_weight = await _rpc(
                    reader, writer, {"op": "update", "updates": [[u, v, float("nan")]]}
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


class TestWireTypes:
    """Ids must be JSON integers and weights JSON numbers; nothing is cast."""

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "query", "s": 1.9, "t": 2},
            {"op": "query", "s": True, "t": 2},
            {"op": "query", "s": "1", "t": 2},
            {"op": "query", "s": 1, "t": None},
            {"op": "batch_query", "pairs": [[0, 1.0]]},
            {"op": "batch_query", "pairs": [[0, 1, 2]]},
            {"op": "batch_query", "pairs": "0,1"},
            {"op": "update", "updates": [[0.9, 1.2, 5.0]]},
            {"op": "update", "updates": [[0, 1, "5"]]},
            {"op": "update", "updates": [[0, 1, True]]},
            {"op": "update", "updates": [[0, 1]]},
            {"op": "update", "updates": [[False, 1, 5.0]]},
        ],
    )
    def test_bad_types_answer_service_error(self, request_):
        async def scenario():
            graph = grid_road_network(8, 8, seed=5)
            service, server = await _booted(graph)
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                before = await _rpc(reader, writer, {"op": "query", "s": 0, "t": 1})
                answer = await _rpc(reader, writer, request_)
                assert not answer["ok"] and answer["code"] == "ServiceError", answer
                # Nothing was committed or answered for a rounded id, and
                # the connection stays open.
                stats = await _rpc(reader, writer, {"op": "stats"})
                assert stats["stats"]["batches_committed"] == 0
                after = await _rpc(reader, writer, {"op": "query", "s": 0, "t": 1})
                assert after["distance"] == before["distance"]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())

    def test_integer_weights_are_numbers(self):
        async def scenario():
            graph = grid_road_network(8, 8, seed=5)
            service, server = await _booted(graph)
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                u, v, _ = next(iter(graph.edges()))
                committed = await _rpc(reader, writer, {"op": "update", "updates": [[u, v, 7]]})
                assert committed["ok"], committed
                answer = await _rpc(reader, writer, {"op": "query", "s": u, "t": v})
                assert answer["version"] == committed["version"] and answer["distance"] <= 7.0
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(scenario())


class TestStop:
    def test_stop_ends_every_connection(self, caplog):
        """No handler outlives ``stop()``: a connected client reads EOF, and
        the loop's teardown has no cancelled handler to log about."""

        async def scenario():
            graph = grid_road_network(8, 8, seed=5)
            service, server = await _booted(graph)
            try:
                idle = await asyncio.open_connection(*server.address)
                busy = await asyncio.open_connection(*server.address)
                for reader, writer in (idle, busy):
                    assert (await _rpc(reader, writer, {"op": "ping"}))["ok"]
                # One request still in flight when the server stops.
                busy[1].write(b'{"op": "ping"}\n')
                await server.stop()
                handlers = [
                    task
                    for task in asyncio.all_tasks()
                    if "_handle_connection" in repr(task.get_coro())
                ]
                assert handlers == []
                assert await idle[0].readline() == b""
                # The stopped server sends no reply: EOF, or a reset for
                # the request it never read.
                try:
                    assert await busy[0].read() == b""
                except ConnectionResetError:
                    pass
                busy[1].close()
                idle[1].close()
                await idle[1].wait_closed()
            finally:
                await server.stop()
                await service.stop()

        with caplog.at_level(logging.WARNING):
            run(scenario())
        assert [record.getMessage() for record in caplog.records] == []
