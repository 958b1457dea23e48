"""The stdlib HTTP layer: parsing, responses, and live routes."""

import asyncio
import http.client
import json

import pytest

from repro.serve.http import (
    HttpError,
    json_response,
    read_request,
    stream_head,
)
from tests.serve.conftest import call, running_app, wait_state


def parse(raw: bytes):
    """Feed raw bytes to the request parser on a private loop."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


class TestParser:
    def test_parses_line_query_headers_body(self):
        request = parse(
            b"POST /jobs?tenant=a&x=1 HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 2\r\n"
            b"X-Api-Key: alice\r\n"
            b"\r\n{}"
        )
        assert request.method == "POST"
        assert request.path == "/jobs"
        assert request.query == {"tenant": "a", "x": "1"}
        assert request.headers["x-api-key"] == "alice"
        assert request.json() == {}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse(b"BROKEN\r\n\r\n")
        assert exc.value.status == 400

    def test_oversized_body_is_413(self):
        with pytest.raises(HttpError) as exc:
            parse(
                b"POST /jobs HTTP/1.1\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
        assert exc.value.status == 413

    def test_truncated_body_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse(
                b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"
            )
        assert exc.value.status == 400

    def test_invalid_json_body_is_400(self):
        request = parse(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{"
        )
        with pytest.raises(HttpError) as exc:
            request.json()
        assert exc.value.status == 400


class TestResponses:
    def test_json_response_shape(self):
        raw = json_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}
        assert f"Content-Length: {len(body)}".encode() in head

    def test_stream_head_has_no_length(self):
        head = stream_head()
        assert b"Content-Length" not in head
        assert b"application/x-ndjson" in head


class TestLiveRoutes:
    def test_health_unknown_routes_and_errors(self, tmp_path):
        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                health = await call(client.health)
                assert health["ok"] is True
                assert health["executor"] == "thread"

                # Unknown path → 404; wrong method → 405; bad spec → 400.
                conn = http.client.HTTPConnection(
                    client.host, client.port, timeout=10
                )

                def raw(method, path, body=None):
                    conn.request(method, path, body=body)
                    response = conn.getresponse()
                    payload = json.loads(response.read() or b"{}")
                    return response.status, payload

                status, _ = await call(raw, "GET", "/nope")
                assert status == 404
                conn.close()

                status, _ = await call(raw, "DELETE", "/jobs")
                assert status == 405
                conn.close()

                status, payload = await call(
                    raw, "POST", "/jobs", b'{"experiment": "nope"}'
                )
                assert status == 400
                assert "unknown experiment" in payload["error"]
                conn.close()

                status, payload = await call(
                    raw, "POST", "/jobs",
                    b'{"experiment": "explore", "packed": true}',
                )
                assert status == 400
                assert "unknown job spec key(s): packed" in payload["error"]
                conn.close()

                status, _ = await call(raw, "GET", "/jobs/zzz")
                assert status == 404
                conn.close()

        asyncio.run(scenario())

    def test_submit_status_events_report_round_trip(self, tmp_path):
        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                submitted = await call(client.submit, {
                    "experiment": "fuzz", "runs": 12, "chunk_size": 4,
                })
                job_id = submitted["id"]
                assert submitted["state"] == "queued"

                final = await wait_state(client, job_id, ("done",))
                progress = final["progress"]
                assert progress["completed_chunks"] == 3
                assert progress["completed_units"] == 12

                events = await call(
                    lambda: list(client.events(job_id))
                )
                kinds = [event["event"] for event in events]
                assert kinds[0] == "job-queued"
                assert kinds[-1] == "job-done"
                assert kinds.count("chunk") == 3
                # seq is a stable cursor for ?since= pagination.
                assert [event["seq"] for event in events] == list(
                    range(len(events))
                )
                tail = await call(
                    lambda: list(client.events(job_id, since=2))
                )
                assert tail == events[2:]

                # The report round-trips through the pickle endpoint.
                report = await call(client.report, job_id)
                assert report.summary() in final["result"]["summary"]

                listed = await call(client.list_jobs)
                assert [job["id"] for job in listed] == [job_id]

        asyncio.run(scenario())

    def test_report_before_done_is_conflict(self, tmp_path):
        from repro.serve import ServeClientError

        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                submitted = await call(client.submit, {
                    "experiment": "protocol", "seeds": 400,
                    "chunk_size": 2,
                })
                job_id = submitted["id"]
                try:
                    with pytest.raises(ServeClientError) as exc:
                        await call(client.result, job_id)
                    assert exc.value.status == 409
                finally:
                    await call(client.cancel, job_id)

        asyncio.run(scenario())
