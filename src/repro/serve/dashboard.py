"""The live service's dashboards: streaming HTML page and text fallback.

Two renderings of the same state, one per consumer:

* :func:`render_html` — a single self-contained page (inline CSS + JS,
  no external assets, so it works on an air-gapped lab network) that
  subscribes to the service's ``/stream`` SSE endpoint and draws the
  Figure 11-style per-machine CPU temperature traces on a canvas, the
  per-machine status table, and the alert list with acknowledge buttons;
* :func:`render_text` — the ``repro top`` frame
  (:func:`repro.telemetry.dashboard.render`) plus an alert footer, for
  ``curl``, CI logs, and terminals (served at ``/dashboard.txt``).
"""

from __future__ import annotations

from typing import List

from ..telemetry.dashboard import render as _render_metrics

#: Template placeholders: {title}, {threshold}.
_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
  body {{ font-family: ui-monospace, Menlo, Consolas, monospace;
         background: #111418; color: #d7dce2; margin: 1.5rem; }}
  h1 {{ font-size: 1.1rem; font-weight: 600; }}
  .meta {{ color: #8b949e; margin-bottom: 1rem; }}
  canvas {{ background: #161b22; border: 1px solid #30363d; width: 100%;
            height: 260px; }}
  table {{ border-collapse: collapse; margin-top: 1rem; width: 100%; }}
  th, td {{ text-align: left; padding: 0.25rem 0.9rem 0.25rem 0;
            border-bottom: 1px solid #21262d; font-size: 0.85rem; }}
  th {{ color: #8b949e; font-weight: 500; }}
  .alert-firing {{ color: #f85149; }}
  .alert-acked {{ color: #d29922; }}
  .alert-ok {{ color: #3fb950; }}
  button {{ background: #21262d; color: #d7dce2; border: 1px solid #30363d;
            border-radius: 4px; cursor: pointer; font: inherit;
            padding: 0.1rem 0.5rem; }}
  #alerts li {{ margin: 0.15rem 0; list-style: none; }}
  #alerts ul {{ padding: 0; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div class="meta">
  sim time <span id="simtime">-</span> s &middot;
  active servers <span id="active">-</span> &middot;
  dropped <span id="dropped">-</span> req/s &middot;
  stream <span id="link">connecting&hellip;</span>
</div>
<canvas id="chart" width="960" height="260"></canvas>
<div id="alerts"><ul></ul></div>
<table>
  <thead><tr>
    <th>machine</th><th>state</th><th>cpu &deg;C</th><th>disk &deg;C</th>
    <th>weight</th><th>connections</th>
  </tr></thead>
  <tbody id="machines"></tbody>
</table>
<script>
"use strict";
const THRESHOLD = {threshold};
const WINDOW = 600;           // points kept per machine
const series = new Map();     // machine -> [[t, cpu], ...]
const colors = ["#58a6ff", "#3fb950", "#d29922", "#f85149",
                "#bc8cff", "#39c5cf", "#d2a8ff", "#ffa657"];

function colorFor(name) {{
  const names = [...series.keys()].sort();
  return colors[names.indexOf(name) % colors.length];
}}

function drawChart() {{
  const canvas = document.getElementById("chart");
  const ctx = canvas.getContext("2d");
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  let tMin = Infinity, tMax = -Infinity, yMin = Infinity, yMax = -Infinity;
  for (const points of series.values()) {{
    for (const [t, y] of points) {{
      tMin = Math.min(tMin, t); tMax = Math.max(tMax, t);
      yMin = Math.min(yMin, y); yMax = Math.max(yMax, y);
    }}
  }}
  if (!isFinite(tMin) || tMax <= tMin) return;
  yMin = Math.min(yMin, THRESHOLD) - 2; yMax = Math.max(yMax, THRESHOLD) + 2;
  const X = t => (t - tMin) / (tMax - tMin) * (canvas.width - 20) + 10;
  const Y = y => canvas.height - 15
      - (y - yMin) / (yMax - yMin) * (canvas.height - 30);
  ctx.strokeStyle = "#f85149"; ctx.setLineDash([4, 4]);
  ctx.beginPath(); ctx.moveTo(10, Y(THRESHOLD));
  ctx.lineTo(canvas.width - 10, Y(THRESHOLD)); ctx.stroke();
  ctx.setLineDash([]);
  ctx.fillStyle = "#8b949e"; ctx.font = "11px monospace";
  ctx.fillText("T_h " + THRESHOLD + "\\u00b0C", 14, Y(THRESHOLD) - 4);
  for (const [name, points] of series) {{
    ctx.strokeStyle = colorFor(name);
    ctx.beginPath();
    points.forEach(([t, y], i) => {{
      if (i === 0) ctx.moveTo(X(t), Y(y)); else ctx.lineTo(X(t), Y(y));
    }});
    ctx.stroke();
    const last = points[points.length - 1];
    ctx.fillStyle = colorFor(name);
    ctx.fillText(name, X(last[0]) - 55, Y(last[1]) - 4);
  }}
}}

function renderMachines(frame) {{
  const rows = Object.keys(frame.servers).sort().map(name => {{
    const s = frame.servers[name];
    const hot = s.cpu_temperature >= THRESHOLD ? " class=\\"alert-firing\\"" : "";
    return `<tr><td>${{name}}</td><td>${{s.state}}</td>` +
      `<td${{hot}}>${{s.cpu_temperature.toFixed(1)}}</td>` +
      `<td>${{s.disk_temperature.toFixed(1)}}</td>` +
      `<td>${{s.weight.toFixed(2)}}</td>` +
      `<td>${{s.connections.toFixed(0)}}</td></tr>`;
  }});
  document.getElementById("machines").innerHTML = rows.join("");
}}

function renderAlerts(alerts) {{
  const items = alerts.map(a => {{
    const cls = "alert-" + a.state;
    const ack = a.state === "firing"
      ? ` <button onclick="ack('${{a.rule}}','${{a.machine}}')">ack</button>`
      : "";
    return `<li class="${{cls}}">[${{a.state}}] ${{a.rule}} on ` +
           `${{a.machine}} (${{a.value === null ? "-" :
             a.value.toFixed(1)}}\\u00b0C)${{ack}}</li>`;
  }});
  document.getElementById("alerts").firstElementChild.innerHTML =
      items.join("") || "<li class=\\"alert-ok\\">no alerts evaluated</li>";
}}

async function ack(rule, machine) {{
  await fetch(`/api/alerts/ack?rule=${{encodeURIComponent(rule)}}` +
              `&machine=${{encodeURIComponent(machine)}}`, {{method: "POST"}});
}}

const stream = new EventSource("/stream");
stream.onopen = () => document.getElementById("link").textContent = "live";
stream.onerror = () => document.getElementById("link").textContent = "lost";
stream.addEventListener("tick", e => {{
  const frame = JSON.parse(e.data);
  document.getElementById("simtime").textContent = frame.time.toFixed(0);
  document.getElementById("active").textContent = frame.active_servers;
  document.getElementById("dropped").textContent =
      frame.dropped_rate.toFixed(2);
  for (const [name, s] of Object.entries(frame.servers)) {{
    if (!series.has(name)) series.set(name, []);
    const points = series.get(name);
    points.push([frame.time, s.cpu_temperature]);
    if (points.length > WINDOW) points.shift();
  }}
  renderMachines(frame);
  if (frame.alerts) renderAlerts(frame.alerts);
  drawChart();
}});
</script>
</body>
</html>
"""


def render_html(title: str = "repro serve", threshold: float = 67.0) -> str:
    """The self-contained streaming dashboard page."""
    return _PAGE.format(title=title, threshold=f"{threshold:g}")


def render_text(telemetry, alerts: List[dict], width: int = 80) -> str:
    """The ``repro top`` frame plus an alert footer (``/dashboard.txt``),
    every line at most ``width`` columns."""
    frame = _render_metrics(telemetry, width=width)
    lines = [frame, "", "ALERTS"]
    if alerts:
        for entry in alerts:
            value = entry.get("value")
            shown = "-" if value is None else f"{value:.1f}C"
            lines.append(
                f"  [{entry['state']:>6}] {entry['rule']} "
                f"on {entry['machine']} ({shown})"[:width]
            )
    else:
        lines.append("  (no alerts evaluated)")
    return "\n".join(lines)
