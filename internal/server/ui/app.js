// mobisense dashboard: vanilla JS over the server's JSON API and SSE hub.
// State refreshes by polling /v1/jobs; the selected job additionally gets
// a live EventSource so progress bars move between polls.

'use strict';

const $ = (sel) => document.querySelector(sel);

const state = {
  jobs: [],
  selected: null,   // job id
  records: [],      // parsed records.jsonl of the selected job
  result: null,     // aggregates of the selected job
  traces: [],       // aggregated trace curves of the selected job
  es: null,         // EventSource for the selected job
  replay: null,     // interval handle of a running replay animation
};

// ---- job list ----------------------------------------------------------

async function refreshJobs() {
  try {
    const res = await fetch('/v1/jobs');
    const body = await res.json();
    state.jobs = body.jobs || [];
    setConn('live');
  } catch (e) {
    setConn('dead');
    return;
  }
  renderJobs();
}

function setConn(cls) {
  const el = $('#conn');
  el.textContent = cls === 'live' ? 'connected' : 'unreachable';
  el.className = 'pill ' + cls;
}

function fmtETA(p) {
  if (!p || !p.eta_ms) return '';
  const s = Math.round(p.eta_ms / 1000);
  if (s < 60) return s + 's';
  return Math.floor(s / 60) + 'm' + (s % 60) + 's';
}

function renderJobs() {
  const tbody = $('#jobs tbody');
  tbody.textContent = '';
  $('#no-jobs').hidden = state.jobs.length > 0;
  for (const j of [...state.jobs].reverse()) {
    const tr = document.createElement('tr');
    tr.className = 'selectable' + (j.id === state.selected ? ' selected' : '');
    const p = j.progress;
    const frac = p && p.total ? p.done / p.total : (j.state === 'done' ? 1 : 0);
    tr.innerHTML =
      `<td>${j.id}</td><td>${j.kind}</td>` +
      `<td><span class="pill ${j.state}">${j.state}${j.cache_hit ? ' (cache)' : ''}</span></td>` +
      `<td><span class="bar"><i style="width:${Math.round(100 * frac)}%"></i></span> ` +
      `${p ? p.done + '/' + p.total : ''}</td>` +
      `<td>${j.state === 'running' ? fmtETA(p) : ''}</td><td></td>`;
    if (j.state === 'queued' || j.state === 'running') {
      const btn = document.createElement('button');
      btn.textContent = 'cancel';
      btn.onclick = (ev) => { ev.stopPropagation(); fetch('/v1/jobs/' + j.id, {method: 'DELETE'}); };
      tr.lastElementChild.appendChild(btn);
    }
    tr.onclick = () => selectJob(j.id);
    tbody.appendChild(tr);
  }
}

// ---- selected job: SSE + detail ---------------------------------------

function selectJob(id) {
  state.selected = id;
  if (state.es) { state.es.close(); state.es = null; }
  const es = new EventSource('/v1/jobs/' + id + '/events');
  es.addEventListener('progress', (ev) => {
    const p = JSON.parse(ev.data);
    const j = state.jobs.find((j) => j.id === id);
    if (j) { j.progress = p; renderJobs(); }
  });
  es.addEventListener('state', (ev) => {
    const v = JSON.parse(ev.data);
    const i = state.jobs.findIndex((j) => j.id === id);
    if (i >= 0) state.jobs[i] = v;
    renderJobs();
    loadDetail(id);
  });
  es.onerror = () => es.close();
  state.es = es;
  loadDetail(id);
}

async function loadDetail(id) {
  $('#detail').hidden = false;
  $('#detail-id').textContent = id;
  const j = state.jobs.find((j) => j.id === id);
  const st = $('#detail-state');
  st.textContent = j ? j.state : '';
  st.className = 'pill ' + (j ? j.state : '');
  state.result = j && j.result ? j.result : null;

  state.records = [];
  try {
    const res = await fetch('/v1/jobs/' + id + '/records');
    if (res.ok) {
      const text = await res.text();
      state.records = text.split('\n').filter(Boolean).map((l) => JSON.parse(l));
    }
  } catch (e) { /* job may have no store */ }

  state.traces = [];
  try {
    const res = await fetch('/v1/jobs/' + id + '/traces');
    if (res.ok) {
      const body = await res.json();
      state.traces = body.traces || [];
    }
  } catch (e) { /* job may have no store */ }

  drawAggregates();
  drawTraceAgg();
  setupRunPickers();
}

// ---- aggregate chart ---------------------------------------------------

function aggregates() {
  if (state.result && state.result.aggregates) return state.result.aggregates;
  return [];
}

// groupLabel names an aggregate or trace group: scheme, scenario, N and
// its axis values, a categorical value by its name.
function groupLabel(g) {
  let l = g.scheme;
  if (g.scenario) l += '/' + g.scenario;
  l += ' n=' + g.n;
  for (const ax of g.axes || []) l += ' ' + ax.name + '=' + (ax.str || ax.value);
  return l;
}

function drawAggregates() {
  const canvas = $('#agg-chart');
  const ctx = canvas.getContext('2d');
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const aggs = aggregates();
  const metric = $('#agg-metric').value;
  if (!aggs.length) {
    drawEmpty(ctx, canvas, 'no aggregates yet');
    return;
  }
  const vals = aggs.map((a) => (a[metric] || {}).mean || 0);
  const errs = aggs.map((a) => (a[metric] || {}).ci95 || 0);
  const max = Math.max(...vals.map((v, i) => v + errs[i]), 1e-9);
  const pad = 34, w = canvas.width - pad - 8, h = canvas.height - pad - 8;
  const bw = Math.min(48, w / vals.length * 0.7);
  ctx.font = '10px ui-monospace, monospace';
  // y axis
  ctx.strokeStyle = '#232c37';
  ctx.fillStyle = '#7a8694';
  for (let g = 0; g <= 4; g++) {
    const y = 8 + h - (h * g) / 4;
    ctx.beginPath(); ctx.moveTo(pad, y); ctx.lineTo(pad + w, y); ctx.stroke();
    ctx.fillText(short(max * g / 4), 2, y + 3);
  }
  vals.forEach((v, i) => {
    const x = pad + (w * (i + 0.5)) / vals.length - bw / 2;
    const bh = (h * v) / max;
    ctx.fillStyle = '#4fb6a2';
    ctx.fillRect(x, 8 + h - bh, bw, bh);
    // 95% CI whisker
    if (errs[i] > 0) {
      const cx = x + bw / 2;
      const y1 = 8 + h - (h * Math.min(max, v + errs[i])) / max;
      const y2 = 8 + h - (h * Math.max(0, v - errs[i])) / max;
      ctx.strokeStyle = '#d7dde4';
      ctx.beginPath(); ctx.moveTo(cx, y1); ctx.lineTo(cx, y2); ctx.stroke();
    }
    ctx.save();
    ctx.translate(x + bw / 2, canvas.height - 2);
    ctx.rotate(-Math.PI / 8);
    ctx.fillStyle = '#7a8694';
    ctx.textAlign = 'right';
    ctx.fillText(groupLabel(aggs[i]).slice(0, 28), 0, 0);
    ctx.restore();
  });
}

function short(v) {
  if (v >= 1e6) return (v / 1e6).toFixed(1) + 'M';
  if (v >= 1e3) return (v / 1e3).toFixed(1) + 'k';
  if (v >= 10) return v.toFixed(0);
  return v.toFixed(2);
}

function drawEmpty(ctx, canvas, msg) {
  ctx.fillStyle = '#7a8694';
  ctx.font = '12px ui-monospace, monospace';
  ctx.textAlign = 'center';
  ctx.fillText(msg, canvas.width / 2, canvas.height / 2);
  ctx.textAlign = 'left';
}

// ---- aggregated trace curves ------------------------------------------

const groupColors = ['#4fb6a2', '#d0a24f', '#7aa2e8', '#d06a6a', '#a27ad0', '#6ac08a'];

// drawTraceAgg renders every group's mean curve for the selected metric,
// with a translucent ±95% CI band behind each line.
function drawTraceAgg() {
  const canvas = $('#traceagg-chart');
  const ctx = canvas.getContext('2d');
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const traces = state.traces || [];
  $('#traceagg-fig').hidden = traces.length === 0;
  if (!traces.length) return;
  const key = $('#traceagg-metric').value;
  let tMax = 1e-9, vMax = 1e-9;
  for (const tr of traces) {
    for (const p of tr.points || []) {
      tMax = Math.max(tMax, p.t);
      vMax = Math.max(vMax, (p[key] || {}).mean + ((p[key] || {}).ci95 || 0));
    }
  }
  const pad = 34, w = canvas.width - pad - 8, h = canvas.height - 8 - 18;
  const px = (t) => pad + (w * t) / tMax;
  const py = (v) => 8 + h - (h * Math.max(0, Math.min(vMax, v))) / vMax;
  ctx.font = '10px ui-monospace, monospace';
  ctx.strokeStyle = '#232c37';
  ctx.fillStyle = '#7a8694';
  for (let g = 0; g <= 4; g++) {
    const y = 8 + h - (h * g) / 4;
    ctx.beginPath(); ctx.moveTo(pad, y); ctx.lineTo(pad + w, y); ctx.stroke();
    ctx.fillText(short(vMax * g / 4), 2, y + 3);
  }
  ctx.fillText('t=' + short(tMax) + 's', pad + w - 48, canvas.height - 4);
  traces.forEach((tr, gi) => {
    const pts = tr.points || [];
    if (!pts.length) return;
    const color = groupColors[gi % groupColors.length];
    // CI band: mean+ci forward, mean-ci back.
    ctx.fillStyle = color + '33';
    ctx.beginPath();
    pts.forEach((p, i) => {
      const m = (p[key] || {}).mean || 0, ci = (p[key] || {}).ci95 || 0;
      if (i === 0) ctx.moveTo(px(p.t), py(m + ci)); else ctx.lineTo(px(p.t), py(m + ci));
    });
    for (let i = pts.length - 1; i >= 0; i--) {
      const p = pts[i];
      const m = (p[key] || {}).mean || 0, ci = (p[key] || {}).ci95 || 0;
      ctx.lineTo(px(p.t), py(m - ci));
    }
    ctx.closePath();
    ctx.fill();
    // mean line
    ctx.strokeStyle = color;
    ctx.lineWidth = 1.5;
    ctx.beginPath();
    pts.forEach((p, i) => {
      const m = (p[key] || {}).mean || 0;
      if (i === 0) ctx.moveTo(px(p.t), py(m)); else ctx.lineTo(px(p.t), py(m));
    });
    ctx.stroke();
    ctx.lineWidth = 1;
    // legend entry
    ctx.fillStyle = color;
    ctx.fillRect(pad + 4, 12 + gi * 12, 8, 8);
    ctx.fillStyle = '#7a8694';
    ctx.fillText(groupLabel(tr).slice(0, 40), pad + 16, 19 + gi * 12);
  });
}

// ---- deployment replay -------------------------------------------------

function replayRun() {
  const idx = Number($('#replay-run').value);
  return state.records.find((r) => r.index === idx && r.trace &&
    r.trace.some((s) => s.layout && s.layout.length));
}

function stopReplay() {
  if (state.replay) { clearInterval(state.replay); state.replay = null; }
  $('#replay-play').textContent = 'play';
}

function toggleReplay() {
  if (state.replay) { stopReplay(); return; }
  const run = replayRun();
  if (!run) return;
  const slider = $('#replay-slider');
  $('#replay-play').textContent = 'pause';
  state.replay = setInterval(() => {
    let i = Number(slider.value) + 1;
    if (i > Number(slider.max)) i = 0; // loop
    slider.value = i;
    drawReplayFrame();
  }, 150);
}

function setupReplay() {
  stopReplay();
  const runs = state.records.filter((r) => r.trace &&
    r.trace.some((s) => s.layout && s.layout.length));
  fillPicker($('#replay-run'), runs);
  $('#replay-fig').hidden = runs.length === 0;
  if (!runs.length) return;
  const run = replayRun();
  const slider = $('#replay-slider');
  slider.max = run ? run.trace.length - 1 : 0;
  slider.value = 0;
  drawReplayFrame();
}

function drawReplayFrame() {
  const canvas = $('#replay-chart');
  const ctx = canvas.getContext('2d');
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const run = replayRun();
  if (!run) { drawEmpty(ctx, canvas, 'no replayable runs'); return; }
  const i = Math.min(Number($('#replay-slider').value), run.trace.length - 1);
  const s = run.trace[i];
  $('#replay-time').textContent =
    't=' + s.t + 's cov=' + (100 * s.coverage).toFixed(1) + '%';
  const pts = s.layout || [];
  if (!pts.length) { drawEmpty(ctx, canvas, 'no layout in sample'); return; }
  // Fixed scale over the whole series so the animation doesn't rescale
  // frame to frame.
  let minX = Infinity, maxX = -Infinity, minY = Infinity, maxY = -Infinity;
  for (const sm of run.trace) {
    for (const p of sm.layout || []) {
      minX = Math.min(minX, p.x); maxX = Math.max(maxX, p.x);
      minY = Math.min(minY, p.y); maxY = Math.max(maxY, p.y);
    }
  }
  const span = Math.max(maxX - minX, maxY - minY, 1e-9);
  const pad = 12, sc = (canvas.width - 2 * pad) / span;
  ctx.fillStyle = '#4fb6a2';
  for (const p of pts) {
    const x = pad + (p.x - minX) * sc;
    const y = canvas.height - pad - (p.y - minY) * sc;
    ctx.beginPath();
    ctx.arc(x, y, 2.2, 0, 2 * Math.PI);
    ctx.fill();
  }
}

// ---- trace + layout charts --------------------------------------------

function runName(r) {
  let l = '#' + r.index + ' ' + r.scheme;
  if (r.scenario) l += '/' + r.scenario;
  l += ' n=' + r.n + ' r' + r.repeat;
  return l;
}

function setupRunPickers() {
  const traced = state.records.filter((r) => r.trace && r.trace.length);
  const withLayout = state.records.filter((r) => r.positions && r.positions.length);
  fillPicker($('#trace-run'), traced);
  fillPicker($('#layout-run'), withLayout);
  $('#trace-fig').hidden = traced.length === 0;
  $('#layout-fig').hidden = withLayout.length === 0;
  drawTrace();
  drawLayout();
  setupReplay();
}

function fillPicker(sel, runs) {
  sel.textContent = '';
  runs.forEach((r) => {
    const o = document.createElement('option');
    o.value = r.index;
    o.textContent = runName(r);
    sel.appendChild(o);
  });
}

function drawTrace() {
  const canvas = $('#trace-chart');
  const ctx = canvas.getContext('2d');
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const idx = Number($('#trace-run').value);
  const run = state.records.find((r) => r.index === idx && r.trace);
  if (!run) { drawEmpty(ctx, canvas, 'no traced runs'); return; }
  const key = $('#trace-metric').value;
  const pts = run.trace.map((s) => [s.t, s[key] || 0]);
  const tMax = Math.max(...pts.map((p) => p[0]), 1e-9);
  const vMax = Math.max(...pts.map((p) => p[1]), 1e-9);
  const pad = 34, w = canvas.width - pad - 8, h = canvas.height - 8 - 18;
  ctx.font = '10px ui-monospace, monospace';
  ctx.strokeStyle = '#232c37';
  ctx.fillStyle = '#7a8694';
  for (let g = 0; g <= 4; g++) {
    const y = 8 + h - (h * g) / 4;
    ctx.beginPath(); ctx.moveTo(pad, y); ctx.lineTo(pad + w, y); ctx.stroke();
    ctx.fillText(short(vMax * g / 4), 2, y + 3);
  }
  ctx.fillText('t=' + short(tMax) + 's', pad + w - 48, canvas.height - 4);
  ctx.strokeStyle = '#4fb6a2';
  ctx.lineWidth = 1.5;
  ctx.beginPath();
  pts.forEach(([t, v], i) => {
    const x = pad + (w * t) / tMax;
    const y = 8 + h - (h * v) / vMax;
    if (i === 0) ctx.moveTo(x, y); else ctx.lineTo(x, y);
  });
  ctx.stroke();
  ctx.lineWidth = 1;
}

function drawLayout() {
  const canvas = $('#layout-chart');
  const ctx = canvas.getContext('2d');
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const idx = Number($('#layout-run').value);
  const run = state.records.find((r) => r.index === idx && r.positions);
  if (!run) { drawEmpty(ctx, canvas, 'no layout records'); return; }
  const initial = $('#layout-initial').checked && run.initial_positions;
  const pts = initial ? run.initial_positions : run.positions;
  const xs = pts.map((p) => p.x), ys = pts.map((p) => p.y);
  const minX = Math.min(...xs), maxX = Math.max(...xs, minX + 1e-9);
  const minY = Math.min(...ys), maxY = Math.max(...ys, minY + 1e-9);
  const span = Math.max(maxX - minX, maxY - minY);
  const pad = 12, s = (canvas.width - 2 * pad) / span;
  ctx.fillStyle = initial ? '#d0a24f' : '#4fb6a2';
  for (const p of pts) {
    const x = pad + (p.x - minX) * s;
    const y = canvas.height - pad - (p.y - minY) * s;
    ctx.beginPath();
    ctx.arc(x, y, 2.2, 0, 2 * Math.PI);
    ctx.fill();
  }
}

// ---- metrics pane ------------------------------------------------------

async function refreshMetrics() {
  try {
    const res = await fetch('/metrics');
    const text = await res.text();
    $('#metrics').textContent = text
      .split('\n')
      .filter((l) => l && !l.startsWith('#'))
      .join('\n');
  } catch (e) { /* leave the previous snapshot */ }
}

// ---- wiring ------------------------------------------------------------

$('#agg-metric').onchange = drawAggregates;
$('#traceagg-metric').onchange = drawTraceAgg;
$('#trace-run').onchange = drawTrace;
$('#trace-metric').onchange = drawTrace;
$('#layout-run').onchange = drawLayout;
$('#layout-initial').onchange = drawLayout;
$('#replay-run').onchange = () => { stopReplay(); setupReplay(); };
$('#replay-slider').oninput = () => { stopReplay(); drawReplayFrame(); };
$('#replay-play').onclick = toggleReplay;

refreshJobs();
refreshMetrics();
setInterval(refreshJobs, 3000);
setInterval(refreshMetrics, 5000);
