"""The HTTP shell: routes, status codes, and the client driving them."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import run_campaign
from repro.serve import (
    CharacterizationService,
    ServeClient,
    ServeError,
    serve_background,
)
from repro.serve.validate import campaign_spec_from_dict
from repro.store import ResultStore

PAYLOAD = {"builder": "bias", "corners": ["tt"], "temps_c": [25.0, 85.0],
           "measurements": ["bias_current_ua"]}


@pytest.fixture
def client(tmp_path):
    service = CharacterizationService(store=ResultStore(tmp_path / "store"),
                                      workers=2)
    server, _thread = serve_background(service)
    host, port = server.server_address[:2]
    yield ServeClient(f"http://{host}:{port}")
    server.shutdown()
    service.stop()


class TestLifecycleOverHttp:
    def test_health_and_metrics(self, client):
        health = client.health()
        assert health["status"] == "ok" and health["workers"] == 2
        metrics = client.metrics()
        assert "counters" in metrics and "queue_depth" in metrics

    def test_submit_poll_result_byte_identical(self, client):
        view = client.submit("campaign", PAYLOAD)
        assert view["state"] in ("queued", "running", "done")
        final = client.wait(view["id"], timeout=60)
        assert final["state"] == "done"
        assert final["progress"] == {"units_done": 2, "units_total": 2}

        body = client.result_bytes(view["id"])
        direct = run_campaign(campaign_spec_from_dict(PAYLOAD))
        assert body.decode("utf-8") == direct.to_json() + "\n"

    def test_warm_resubmission_answers_200_done(self, client):
        client.run("campaign", PAYLOAD, timeout=60)
        view = client.submit("campaign", PAYLOAD)
        assert view["state"] == "done" and view["warm"]
        assert client.metrics()["counters"]["warm_hits"] == 1

    def test_result_pagination(self, client):
        view = client.run("campaign", PAYLOAD, timeout=60)
        page = client.result_page(view["id"], offset=1, limit=1)
        assert page["total"] == 2
        assert page["columns"]["temp_c"] == [85.0]
        assert len(page["columns"]["corner"]) == 1

    def test_jobs_listing(self, client):
        view = client.run("campaign", PAYLOAD, timeout=60)
        jobs = client.jobs()
        assert view["id"] in {j["id"] for j in jobs}

    def test_result_of_unfinished_job_is_202_view(self, client):
        # a queued-or-running job answers its status view, not an error
        view = client.submit("campaign", dict(PAYLOAD, seeds=[0, 1, 2]))
        status, body = client._request("GET", f"/v1/jobs/{view['id']}/result")
        payload = json.loads(body)
        if status == 202:
            assert payload["state"] in ("queued", "running")
        else:                       # tiny campaign may already be done
            assert status == 200
        client.wait(view["id"], timeout=60)


class TestClosedLoopOverHttp:
    """Two closed-loop clients over distinct requests, then the same
    requests warm, then one new request from four clients at once: each
    unit executes exactly once and every document is the direct run's."""

    PAYLOADS = [dict(PAYLOAD, seeds=[seed]) for seed in range(3)]

    @staticmethod
    def _in_threads(n, fn):
        errors = []

        def guarded(i):
            try:
                fn(i)
            except Exception as exc:    # re-raised in the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "client thread did not finish"
        if errors:
            raise errors[0]

    def _closed_loop(self, client):
        pending = list(self.PAYLOADS)
        lock = threading.Lock()

        def loop(_):
            own = ServeClient(client.base_url)
            while True:
                with lock:
                    if not pending:
                        return
                    payload = pending.pop(0)
                view = own.run("campaign", payload, timeout=60)
                assert view["state"] == "done", view
                own.result_bytes(view["id"])

        self._in_threads(2, loop)

    def test_cold_warm_and_coalesced_execute_each_unit_once(self, client):
        from repro.store.keys import campaign_key

        def counter(name):
            return client.metrics()["counters"].get(name, 0)

        specs = [campaign_spec_from_dict(p) for p in self.PAYLOADS]
        self._closed_loop(client)
        assert counter("units_executed") == sum(s.n_units for s in specs)
        by_fp = {job["fingerprint"]: job for job in client.jobs()}
        for spec in specs:
            served = client.result_bytes(by_fp[campaign_key(spec)]["id"])
            direct = run_campaign(spec).to_json() + "\n"
            assert served.decode("utf-8") == direct

        executed = counter("units_executed")
        self._closed_loop(client)
        assert counter("units_executed") == executed
        assert counter("warm_hits") >= len(self.PAYLOADS)

        fresh = dict(PAYLOAD, temps_c=[25.0], seeds=[1001, 1002])
        k = 4
        barrier = threading.Barrier(k)
        views = [None] * k

        def submit(i):
            own = ServeClient(client.base_url)
            barrier.wait()
            view = own.submit("campaign", fresh)
            if view["state"] not in ("done", "failed"):
                view = own.wait(view["id"], timeout=60)
            own.result_bytes(view["id"])
            views[i] = view

        self._in_threads(k, submit)
        assert counter("units_executed") - executed == \
            campaign_spec_from_dict(fresh).n_units
        assert all(v["state"] == "done" for v in views)


class TestEventsRoute:
    def test_disarmed_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client._request("GET", "/v1/events")
        assert err.value.status == 404
        assert "disarmed" in str(err.value)

    def test_armed_serves_newest_events(self, client):
        from repro.obs import Recorder, deactivate, event

        rec = Recorder()
        try:
            with rec.activate():
                event("serve.test_event", "error", detail="boom")
                status, body = client._request("GET",
                                               "/v1/events?limit=10")
        finally:
            deactivate()
        assert status == 200
        doc = json.loads(body)
        assert doc["recorded"] == 1
        assert doc["by_severity"]["error"] == 1
        (got,) = doc["events"]
        assert got["name"] == "serve.test_event"
        assert got["fields"] == {"detail": "boom"}

    def test_severity_filter_and_bad_limit(self, client):
        from repro.obs import Recorder, deactivate, event

        rec = Recorder()
        try:
            with rec.activate():
                event("a", "info")
                event("b", "error")
                status, body = client._request(
                    "GET", "/v1/events?severity=error")
                assert status == 200
                assert [e["name"] for e in
                        json.loads(body)["events"]] == ["b"]
                with pytest.raises(ServeError) as err:
                    client._request("GET", "/v1/events?limit=nope")
                assert err.value.status == 400
        finally:
            deactivate()


class TestErrorShell:
    def test_malformed_body_is_400_one_line(self, client):
        with pytest.raises(ServeError) as err:
            client.submit("campaign", {"corners": "tt"})
        assert err.value.status == 400
        assert "\n" not in err.value.message

    def test_invalid_json_body_is_400(self, client):
        url = f"{client.base_url}/v1/campaigns"
        req = urllib.request.Request(url, data=b"{nope", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert "invalid JSON body" in json.loads(err.value.read())["error"]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.job("deadbeef0000")
        assert err.value.status == 404

    def test_unknown_routes_are_404(self, client):
        for method, path in (("GET", "/v2/jobs"), ("POST", "/v1/nope")):
            with pytest.raises(ServeError) as err:
                client._request(method, path, {} if method == "POST" else None)
            assert err.value.status == 404

    def test_http_errors_counted(self, client):
        with pytest.raises(ServeError):
            client.job("nope")
        assert client.metrics()["counters"]["http_errors"] >= 1

    def test_unreachable_server_raises_serve_error(self):
        dead = ServeClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServeError) as err:
            dead.health()
        assert err.value.status == 0

    def test_premature_result_fetch_raises_not_returns_view(self, tmp_path):
        """result_bytes on a non-terminal job must raise, never hand the
        202 status view back as if it were the result document."""
        from repro.serve import CharacterizationService
        from repro.serve.api import ServeServer
        import threading

        service = CharacterizationService(store=None, workers=1)  # no start:
        server = ServeServer(("127.0.0.1", 0), service)   # job stays queued
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            c = ServeClient(f"http://{host}:{port}")
            view = c.submit("campaign", PAYLOAD)
            assert view["state"] == "queued"
            with pytest.raises(ServeError) as err:
                c.result_bytes(view["id"])
            assert err.value.status == 202
            assert "no result yet" in err.value.message
        finally:
            server.shutdown()
            service.stop()

    def test_keepalive_survives_post_error_paths(self, client):
        """On one persistent HTTP/1.1 connection, an errored POST (404
        route, bad Content-Length) must not desync the stream for the
        next, valid request."""
        import http.client

        host, port = client.base_url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            # unknown route with a body: body must be drained
            conn.request("POST", "/v1/nope", body=b'{"x": 1}')
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200                  # stream intact
            assert json.loads(resp.read())["status"] == "ok"

            # garbage Content-Length: 400, not a server-side traceback
            conn.putrequest("POST", "/v1/campaigns")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
        finally:
            conn.close()
        # and the server still serves fresh connections
        assert client.health()["status"] == "ok"
