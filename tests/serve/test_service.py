"""The live thermal service: HTTP plane, SSE, alerts, golden fidelity."""

import asyncio
import io
import json

import pytest

from repro.cli import main
from repro.cluster.simulation import ClusterSimulation, emergency_script
from repro.errors import ServeError
from repro.serve import AlertEngine, AlertRule, ThermalService, http_get
from repro.serve import service as service_module
from repro.serve.http import sse_frame
from repro.telemetry import CONTENT_TYPE_LATEST, Telemetry
from repro.telemetry.exposition import parse_prometheus

from ..golden.traces import GOLDEN_DIR, TOLERANCE


def run(coro):
    return asyncio.run(coro)


def make_simulation(**kwargs):
    kwargs.setdefault("policy", "freon")
    kwargs.setdefault("fiddle_script", emergency_script())
    kwargs.setdefault("telemetry", Telemetry())
    return ClusterSimulation(**kwargs)


def test_golden_fig11_identical_with_service_attached():
    """Attaching the service must not perturb the simulation at all."""
    stored = json.loads((GOLDEN_DIR / "fig11_first120s.json").read_text())

    async def scenario():
        simulation = make_simulation()
        async with ThermalService(simulation) as service:
            await service.serve(duration=120.0, pace=0.0)
        return simulation

    simulation = run(scenario())
    result = simulation.result()
    assert result.times() == stored["times"]
    for machine, expected in stored["series"].items():
        actual = result.series(machine, "cpu_temperature")
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert abs(a - e) <= TOLERANCE


def test_metrics_roundtrip_through_parse_prometheus():
    async def scenario():
        async with ThermalService(make_simulation()) as service:
            await service.serve(duration=60.0, pace=0.0)
            host, port = service.address
            status, headers, body = await http_get(host, port, "/metrics")
            assert status == 200
            assert headers["content-type"] == CONTENT_TYPE_LATEST
            text = body.decode("utf-8")
            assert "# HELP" in text and "# TYPE" in text
            parsed = parse_prometheus(text)
            names = {name for name, _ in parsed}
            assert "serve_frames_total" in names
            assert "serve_scrapes_total" in names
            assert any(name.startswith("cluster_") for name in names)

    run(scenario())


def test_json_api_status_series_and_health():
    async def scenario():
        async with ThermalService(make_simulation()) as service:
            await service.serve(duration=60.0, pace=0.0)
            host, port = service.address

            status, _, body = await http_get(host, port, "/api/status")
            summary = json.loads(body)
            assert status == 200
            assert summary["done"] is True
            assert summary["time"] == 60.0
            assert summary["policy"] == "freon"
            assert len(summary["machines"]) == 4

            status, _, body = await http_get(
                host, port, "/api/series?machine=machine1&points=3"
            )
            data = json.loads(body)
            assert status == 200
            assert len(data["times"]) == 3
            assert list(data["series"]) == ["machine1"]
            assert len(data["series"]["machine1"]["cpu"]) == 3
            assert len(data["active_servers"]) == 3

            status, _, body = await http_get(
                host, port, "/api/series?machine=nope"
            )
            assert status == 404
            status, _, _ = await http_get(
                host, port, "/api/series?points=many"
            )
            assert status == 400

            status, _, body = await http_get(host, port, "/healthz")
            assert status == 200
            assert json.loads(body)["ok"] is True

    run(scenario())


def test_dashboard_pages():
    async def scenario():
        async with ThermalService(make_simulation()) as service:
            service.advance(10)
            host, port = service.address
            status, headers, body = await http_get(host, port, "/")
            assert status == 200
            assert headers["content-type"].startswith("text/html")
            page = body.decode("utf-8")
            assert "EventSource" in page and "/stream" in page
            status, _, body = await http_get(host, port, "/dashboard.txt")
            assert status == 200
            assert "ALERTS" in body.decode("utf-8")

    run(scenario())


def test_dashboard_text_width_is_checked():
    async def scenario():
        async with ThermalService(make_simulation()) as service:
            service.advance(10)
            host, port = service.address
            for width in ("abc", "100000", "0", "-3", ""):
                status, _, body = await http_get(
                    host, port, f"/dashboard.txt?width={width}"
                )
                assert status == 400, width
                assert "width" in json.loads(body)["error"]
            status, _, body = await http_get(
                host, port, "/dashboard.txt?width=120"
            )
            assert status == 200
            lines = body.decode("utf-8").splitlines()
            assert "ALERTS" in lines
            assert max(len(line) for line in lines) == 120

    run(scenario())


def _always_firing(simulation):
    """A rule that fires on every machine at the first evaluation."""
    return AlertEngine(
        [AlertRule(name="always", threshold=0.1, clear_below=0.0)],
        telemetry=simulation.telemetry,
    )


def test_tick_frames_encoded_only_while_someone_listens(monkeypatch):
    """A subscriber gets every tick and alert frame, encoded once each;
    with nobody listening nothing is encoded and the history is the
    same."""
    encoded = []

    def counting_sse_frame(data, event=None, id=None):
        encoded.append(event)
        return sse_frame(data, event=event, id=id)

    monkeypatch.setattr(service_module, "sse_frame", counting_sse_frame)
    quiet_simulation = make_simulation()
    quiet = ThermalService(
        quiet_simulation, alerts=_always_firing(quiet_simulation)
    )
    for _ in range(6):
        quiet.advance(5)
    assert encoded == []

    heard_simulation = make_simulation()
    heard = ThermalService(
        heard_simulation, alerts=_always_firing(heard_simulation)
    )
    queue = heard._subscribe()
    transitions = []
    evaluate = heard.alerts.evaluate

    def recording_evaluate(*args):
        transitions.append(evaluate(*args))
        return transitions[-1]

    heard.alerts.evaluate = recording_evaluate
    for _ in range(6):
        heard.advance(5)

    assert list(heard.frames) == list(quiet.frames)
    expected = []
    for frame, fired in zip(heard.frames, transitions):
        expected.append(sse_frame(frame, event="tick"))
        expected.extend(sse_frame(t, event="alert") for t in fired)
    assert sum(len(fired) for fired in transitions) == 4
    received = [queue.get_nowait() for _ in range(queue.qsize())]
    assert received == expected
    assert len(encoded) == len(expected)


def test_sse_stream_hello_replay_live_and_alert_frames():
    async def scenario():
        simulation = make_simulation()
        alerts = AlertEngine(
            # Fires immediately: ambient is well above 0.
            [AlertRule(name="always", threshold=0.1, clear_below=0.0)],
            telemetry=simulation.telemetry,
        )
        async with ThermalService(simulation, alerts=alerts) as service:
            service.advance(1)  # one frame exists before the client joins
            host, port = service.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")

            hello = (await reader.readuntil(b"\n\n")).decode()
            assert hello.startswith("event: hello\n")
            meta = json.loads(hello.split("data: ", 1)[1])
            assert meta["policy"] == "freon"
            assert len(meta["machines"]) == 4

            replay = (await reader.readuntil(b"\n\n")).decode()
            assert replay.startswith("event: tick\n")

            # The first advance() fired one alert per machine; those
            # frames were broadcast before we subscribed, so drain the
            # live frames of a fresh advance instead.
            service.advance(1)
            live = (await reader.readuntil(b"\n\n")).decode()
            assert live.startswith("event: tick\n")
            frame = json.loads(live.split("data: ", 1)[1])
            assert frame["alerts"][0]["state"] == "firing"
            writer.close()

    run(scenario())


def test_alert_fires_and_acks_over_http():
    async def scenario():
        simulation = make_simulation()
        alerts = AlertEngine(
            [AlertRule(name="always", threshold=0.1, clear_below=0.0)],
            telemetry=simulation.telemetry,
        )
        async with ThermalService(simulation, alerts=alerts) as service:
            service.advance(1)
            host, port = service.address

            status, _, body = await http_get(host, port, "/api/alerts")
            data = json.loads(body)
            assert status == 200
            assert all(s["state"] == "firing" for s in data["states"])
            assert len(data["incidents"]) == 4

            status, _, body = await http_get(
                host, port,
                "/api/alerts/ack?rule=always&machine=machine1",
                method="POST",
            )
            assert status == 200
            assert json.loads(body)["acked"] is True

            # Already acked: not firing any more.
            status, _, _ = await http_get(
                host, port,
                "/api/alerts/ack?rule=always&machine=machine1",
                method="POST",
            )
            assert status == 404
            status, _, _ = await http_get(
                host, port, "/api/alerts/ack?rule=always", method="POST"
            )
            assert status == 400

            status, _, body = await http_get(host, port, "/api/alerts")
            states = {
                s["machine"]: s["state"]
                for s in json.loads(body)["states"]
            }
            assert states["machine1"] == "acked"
            assert states["machine2"] == "firing"

    run(scenario())


def test_default_alert_rule_uses_policy_thresholds():
    simulation = make_simulation()
    service = ThermalService(simulation)
    (rule,) = service.alerts.rules
    assert rule.threshold == simulation.config.high("cpu")
    assert rule.clear_below == simulation.config.low("cpu")


def test_paced_serving_tracks_wall_clock():
    async def scenario():
        async with ThermalService(make_simulation()) as service:
            # 20 simulated seconds at 200x => ~0.1 wall seconds.
            await asyncio.wait_for(
                service.serve(duration=20.0, pace=200.0), timeout=10.0
            )
            assert service.simulation.time == 20.0
            assert service.done is True

    run(scenario())


def test_validation_errors():
    simulation = make_simulation()
    with pytest.raises(ServeError, match="history"):
        ThermalService(simulation, history=0)

    async def bad_pace():
        async with ThermalService(make_simulation()) as service:
            await service.serve(duration=1.0, pace=-1.0)

    with pytest.raises(ServeError, match="pace"):
        run(bad_pace())

    async def bad_frame_every():
        async with ThermalService(make_simulation()) as service:
            await service.serve(duration=1.0, frame_every=0.0)

    with pytest.raises(ServeError, match="frame_every"):
        run(bad_frame_every())


# -- CLI ---------------------------------------------------------------------


def test_cli_serve_probe_smoke():
    out = io.StringIO()
    code = main(
        ["serve", "--pace", "0", "--duration", "120", "--probe"], out=out
    )
    text = out.getvalue()
    assert code == 0, text
    assert "serving http://127.0.0.1:" in text
    assert "probe: PASS" in text


def test_cli_serve_with_rule_file(tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({
        "rules": [{"name": "chilly", "threshold": 0.5, "clear_below": 0.0}]
    }))
    out = io.StringIO()
    code = main(
        ["serve", "--pace", "0", "--duration", "60",
         "--rules", str(rules), "--probe"],
        out=out,
    )
    text = out.getvalue()
    assert code == 0, text
    # The 0.5 C rule fires on every machine.
    assert "4 alert incident(s)" in text


def test_cli_serve_rejects_bad_rule_file(tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text("{}")
    out = io.StringIO()
    code = main(["serve", "--rules", str(rules)], out=out)
    assert code == 1
    assert "no rules found" in out.getvalue()
