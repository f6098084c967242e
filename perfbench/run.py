#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/CMakeLists.txt (the
repository's libraries, `experiments`, `experimentd` and the
benchmark's own perfbench_harness) into .bench_build, runs one workload,
checks every output against a reference and prints, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1
they are the per-layer ones, from a separate traced run that also
runs the benchmark's own spans off on the same work to give
obs.overhead_frac.

Workloads (why each exists is in BENCHMARK.json):
  figures_cold  experiments --figure all --scale full --jobs 2, empty store
  figures_warm  the same command on the store a cold run filled
  service_mix   two closed-loop clients against experimentd --jobs 2

Every child gets a fresh --cache-dir under .bench_build/runs (the warm
runs: the store one cold run of the same code filled, kept in
.bench_build/warm-store) and an environment without RODINIA_*
variables. Lines before the last one ("perfbench env|counters|detail
...") record the host, the build and the deterministic work counters,
which must repeat exactly between runs of the same code (see
benchlib.Ledger).
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"
EXPERIMENTS = os.path.join(BUILD, "repo_tools", "experiments")
EXPERIMENTD = os.path.join(BUILD, "repo_tools", "experimentd")
HARNESS = os.path.join(BUILD, "perfbench_harness")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

JOBS = 2  # --jobs 4 spreads by a fifth run to run on a 4-CPU host
# Set-up repetitions whose median is setup_s: one probe takes ~0.4 s
# and spreads by a sixth from run to run on a shared host.
PROBES = 9
CHILD_TIMEOUT_S = 170
MIB = 1024.0

class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------ processes

def pinned_env():
    """The caller's environment minus every RODINIA_* knob: a stray
    RODINIA_CACHE_DIR would turn a cold run warm, RODINIA_SIM_THREADS
    or RODINIA_TRACE_* would change the engine, RODINIA_FAULTS would
    inject failures."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("RODINIA_")}


class Child:
    """One finished child process: wall and CPU seconds, peak RSS."""

    def __init__(self, argv, cwd, out_path, timeout=CHILD_TIMEOUT_S):
        with open(out_path, "wb") as out, \
                open(out_path + ".err", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                    env=pinned_env())
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / MIB
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        self.ok = self.returncode == 0
        if not self.ok:
            with open(out_path + ".err", encoding="utf-8",
                      errors="replace") as f:
                log("%s exited %d: %s" % (os.path.basename(argv[0]),
                                          self.returncode, f.read()[-2000:]))


def last_json(text):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if not lines:
        raise ValueError("no JSON object in the output")
    return json.loads(lines[-1])


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no repository sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode != 0:
            raise BenchError("configure failed: " + r.stderr[-2000:])
    r = subprocess.run(["cmake", "--build", BUILD, "--parallel",
                        str(os.cpu_count() or 1), "--target",
                        "experiments", "experimentd", "perfbench_harness"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        raise BenchError("build failed: " + r.stdout[-3000:])


def environment(digest):
    commit = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "build_type": BUILD_TYPE, "commit": commit,
            "source_digest": digest, "jobs": JOBS}


# ------------------------------------------------------------ the run

class Run:
    """Shared state of one benchmark invocation: the scratch directory,
    operation and failure tallies, and the work counters."""

    def __init__(self, args, digest):
        self.args = args
        self.digest = digest
        self.dir = os.path.join(BUILD, "runs",
                                "%s-%d" % (args.workload, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.counters = {}
        self.detail = {}
        self.golden = benchlib.load_golden(GOLDEN_DIR)
        self.listing = None
        self.n = 0

    def path(self, name):
        self.n += 1
        return os.path.join(self.dir, "%02d-%s" % (self.n, name))

    def fresh_dir(self, name):
        p = self.path(name)
        os.makedirs(p)
        return p

    def tally(self, attempted, failed, what=""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            log("%d of %d failed: %s" % (failed, attempted, what))

    def record_counters(self, label, counters):
        """Keep one repetition's counters; repetitions with the same
        label must agree exactly (in this run and, through the ledger,
        in every run of the same code)."""
        if label in self.counters:
            drift = benchlib.counter_drift(self.counters[label], counters)
        else:
            self.counters[label] = counters
            drift = []
        self.tally(1, 1 if drift else 0, "counter drift %s %s"
                   % (label, drift))

    # -------------------------------------------------- experiments runs

    def figures_listing(self):
        if self.listing is None:
            c = Child([EXPERIMENTS, "--list"], self.dir, self.path("list"))
            if not c.ok:
                raise BenchError("experiments --list failed")
            self.listing = benchlib.parse_listing(c.stdout)
        return self.listing

    def figures(self, store, label, scale="full", figure="all"):
        """One `experiments` run on store; checks the figures against
        the golden corpus (full scale) and records the stable work
        counters under label. Returns (Child, metrics JSON)."""
        metrics_path = self.path("metrics.json")
        argv = [EXPERIMENTS, "--figure", figure, "--scale", scale,
                "--jobs", str(JOBS), "--cache-dir", store, "--quiet",
                "--no-summary", "--metrics", metrics_path]
        c = Child(argv, self.dir, self.path("figures.txt"))
        try:
            with open(metrics_path, encoding="utf-8") as f:
                metrics = json.load(f)
        except (OSError, ValueError):
            metrics = {"stable": {}, "volatile": {}}
        try:
            sections = benchlib.figures_by_id(
                benchlib.split_figures(c.stdout), self.figures_listing())
        except ValueError as e:
            log("figure output: %s" % e)
            sections = {}
        if scale == "full" and figure == "all":
            bad = benchlib.golden_mismatches(sections, self.golden)
            self.tally(len(self.golden), len(bad) if c.ok
                       else len(self.golden), "figures %s" % bad)
        else:
            self.tally(1, 0 if c.ok and sections else 1, "probe " + label)
        self.record_counters(label, figure_counters(metrics))
        return c, metrics

    def probe_figures(self):
        """Set-up of a figure run: the program starts, opens a fresh
        store and produces a figure end to end (fig1 at tiny scale)."""
        walls = []
        for _ in range(PROBES):
            c, _ = self.figures(self.fresh_dir("probe-store"), "probe",
                                scale="tiny", figure="fig1")
            walls.append(c.wall_s)
        return statistics.median(walls)

    # -------------------------------------------------- harness runs

    def mirror(self, phase, spans=False):
        argv = [HARNESS, "mirror", "--phase", phase]
        if spans:
            argv.append("--spans")
        c = Child(argv, self.dir, self.path("mirror-%s.json" % phase))
        self.tally(1, 0 if c.ok else 1, "mirror " + phase)
        out = last_json(c.stdout) if c.ok else {"counters": {},
                                                "spans": {},
                                                "recording_thread_insts": {}}
        self.record_counters("mirror-" + phase, out["counters"])
        return c, out


def figure_counters(metrics):
    """The deterministic work counters of one experiments run."""
    s = metrics.get("stable", {})
    sweep = s.get("cachesim", {}).get("sweep", {}).get("line_accesses", {})
    return {
        "sims_run": s.get("gpusim", {}).get("sims_run", 0),
        "sims_store_served": s.get("gpusim", {}).get("store_served", 0),
        "cycles": s.get("gpusim", {}).get("cycles", 0),
        "sweep_line_accesses": sum(sweep.values()),
        "cpu_chars_computed": s.get("cachesim", {}).get("chars_computed", 0),
        "store_publishes": s.get("store", {}).get("publishes", 0),
        "store_hits": s.get("store", {}).get("hits", 0),
        "store_misses": s.get("store", {}).get("misses", 0),
        "jobs_done": s.get("executor", {}).get("jobs_done", 0),
        "figures_built": s.get("figures", {}).get("built", 0),
    }


def repeat(seconds, fn):
    """Call fn until seconds have passed (at least once); returns the
    list of results."""
    results = []
    t0 = time.monotonic()
    while not results or time.monotonic() - t0 < seconds:
        results.append(fn())
    return results


def e2e(setup_s, children):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median([c.wall_s for c in children]),
        "cpu_s": statistics.median([c.cpu_s for c in children]),
        "peak_rss_mib": max(c.rss_mib for c in children),
    }


# ------------------------------------------------------------ per-layer

def ratio(num, den):
    return num / den if den else 0.0


def layers_from_program(metrics, thread_insts):
    """Per-layer values the program's own --metrics registry records:
    sims, sweeps, store, executor and figure assembly."""
    s, v = metrics.get("stable", {}), metrics.get("volatile", {})
    g, gv = s.get("gpusim", {}), v.get("gpusim", {})
    st, stv = s.get("store", {}), v.get("store", {})
    ex, exv = s.get("executor", {}), v.get("executor", {})
    sweep_us = v.get("cachesim", {}).get("sweep", {}).get("wall_us", {})
    sweep_acc = s.get("cachesim", {}).get("sweep", {}) \
        .get("line_accesses", {})
    sim_s = gv.get("sim_wall_us", {}).get("sum", 0) / 1e6
    cycles = g.get("cycles", 0)
    insts = 0
    for label in g.get("sim", {}).get("cycles", {}):
        # "<workload>/s<scale>/v<version>/<config fingerprint>"
        insts += thread_insts.get("/".join(label.split("/")[:3]), 0)
    sweep_s = sum(sweep_us.values()) / 1e6
    accesses = sum(sweep_acc.values())
    hits, misses = st.get("hits", 0), st.get("misses", 0)
    attempts = exv.get("attempt_wall_us", {})
    return {
        "cachesim.sweep.s": sweep_s,
        "cachesim.sweep.line_accesses": accesses,
        "cachesim.sweep.maccess_per_s": ratio(accesses, sweep_s) / 1e6,
        "gpusim.timing.s": sim_s,
        "gpusim.timing.sims": g.get("sims_run", 0),
        "gpusim.timing.cycles": cycles,
        "gpusim.timing.thread_insts": insts,
        "gpusim.timing.mcycles_per_s": ratio(cycles, sim_s) / 1e6,
        "gpusim.timing.minst_per_s": ratio(insts, sim_s) / 1e6,
        "driver.store.load.s": stv.get("load_us", {}).get("sum", 0) / 1e6,
        "driver.store.loads": stv.get("load_us", {}).get("count", 0),
        "driver.store.hit_ratio": ratio(hits, hits + misses),
        "driver.store.publish.s":
            stv.get("publish_us", {}).get("sum", 0) / 1e6,
        "driver.store.publishes": st.get("publishes", 0),
        "driver.store.publish_failures": st.get("publish_failures", 0),
        "driver.executor.busy.s": attempts.get("sum", 0) / 1e6,
        "driver.executor.queue_wait.s":
            exv.get("queue_wait_us", {}).get("sum", 0) / 1e6,
        "driver.executor.steals": exv.get("steals", 0),
        "driver.executor.attempts_per_job":
            ratio(attempts.get("count", 0), ex.get("jobs_done", 0)),
        "driver.context.sims_computed": g.get("sims_run", 0),
        "driver.context.sims_served": g.get("store_served", 0),
        "driver.figures.build.s":
            sum(v.get("figures", {}).get("wall_us", {}).values()) / 1e6,
    }


def layers_from_spans(spans, counters):
    """Per-layer values of the calls the harness wrapped in spans."""
    def s(name):
        return spans.get(name, {}).get("s", 0.0)
    run_cpu = s("core.run_cpu")
    record = s("gpusim.record")
    events = counters.get("trace.events", 0)
    rec_events = counters.get("gpusim.record.events", 0)
    return {
        "core.run_cpu.s": run_cpu,
        "trace.events": events,
        "trace.events_per_s": ratio(events, run_cpu),
        "trace.normalize.s": s("trace.normalize"),
        "trace.chunks_spilled": counters.get("trace.chunks_spilled", 0),
        "gpusim.record.calls": spans.get("gpusim.record", {}).get("n", 0),
        "gpusim.record.s": record,
        "gpusim.record.events": rec_events,
        "gpusim.record.events_per_s": ratio(rec_events, record),
        "gpusim.hash.s": s("gpusim.hash"),
        "gpusim.replay.s": s("gpusim.replay"),
    }


# ------------------------------------------------------------ workloads

def traced_mirror(run, phase, metrics):
    """Per-layer values of a figure workload: the program's own counters
    from its experiments run (metrics) and the mirror's spans, with
    obs.overhead_frac from the mirror run again without spans."""
    plain, _ = run.mirror(phase)
    traced, mirror = run.mirror(phase, spans=True)
    layers = layers_from_spans(mirror["spans"], mirror["counters"])
    layers.update(layers_from_program(
        metrics, mirror["recording_thread_insts"]))
    layers["obs.overhead_frac"] = \
        (traced.wall_s - plain.wall_s) / plain.wall_s
    return layers, mirror


def figures_cold(run):
    a = run.args
    if a.trace:
        _, metrics = run.figures(run.fresh_dir("store"), "cold")
        layers, mirror = traced_mirror(run, "cold", metrics)
        # The mirror must have replayed exactly the program's traces.
        mirrored = mirror["counters"].get("cachesim.sweep.line_accesses")
        run.tally(1, 0 if mirrored == layers["cachesim.sweep.line_accesses"]
                  else 1, "mirror replayed %s line accesses, experiments %s"
                  % (mirrored, layers["cachesim.sweep.line_accesses"]))
        return layers
    setup_s = run.probe_figures()
    children = repeat(a.seconds, lambda: run.figures(
        run.fresh_dir("store"), "cold")[0])
    return e2e(setup_s, children)


def warm_store(run):
    """The store a cold run of this code filled. It is kept in
    .bench_build under the source digest, so only the first run in a
    checkout pays for the fill: a fill per run would cost a cold run
    (figures_cold's wall_s) each time. Warm runs only read it."""
    parent = os.path.join(BUILD, "warm-store")
    store = os.path.join(parent, run.digest)
    if os.path.isdir(store):
        return store
    if os.path.isdir(parent):
        shutil.rmtree(parent)  # stores of other code
    tmp = os.path.join(parent, "fill-%d" % os.getpid())
    os.makedirs(tmp)
    failed = run.failed
    run.figures(tmp, "cold")
    if run.failed != failed:
        return tmp  # a failed fill is not kept for later runs
    os.rename(tmp, store)
    return store


def figures_warm(run):
    a = run.args
    store = warm_store(run)
    if a.trace:
        _, metrics = run.figures(store, "warm")
        return traced_mirror(run, "warm", metrics)[0]
    setup_s = run.probe_figures()
    children = repeat(a.seconds, lambda: run.figures(store, "warm")[0])
    return e2e(setup_s, children)


# ------------------------------------------------------------ service

class Daemon:
    """experimentd on a fresh store; started, pinged and pre-warmed with
    fig1 (checked against golden) by the constructor."""

    def __init__(self, run):
        self.run = run
        self.cwd = run.fresh_dir("daemon")
        # A relative socket path keeps sun_path short however deep the
        # checkout lies.
        argv = [EXPERIMENTD, "--socket", "d.sock", "--cache-dir", "store",
                "--jobs", str(JOBS)]
        t0 = time.monotonic()
        self.err = open(os.path.join(self.cwd, "daemon.err"), "wb")
        self.proc = subprocess.Popen(argv, cwd=self.cwd,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.err, env=pinned_env())
        try:
            payload = self.prewarm()
        except (OSError, ValueError) as e:
            self.stop()
            raise BenchError("experimentd set-up failed: %s" % e)
        self.setup_s = time.monotonic() - t0
        run.tally(1, 0 if payload == run.golden["fig1"] else 1,
                  "prewarm fig1 differs from golden")

    def prewarm(self):
        """Connect, request fig1, and count the sims it ran."""
        sock_path = os.path.relpath(os.path.join(self.cwd, "d.sock"))
        deadline = time.monotonic() + 30
        while True:
            if self.proc.poll() is not None:
                raise OSError("experimentd exited %d" % self.proc.returncode)
            s = socket.socket(socket.AF_UNIX)
            try:
                s.connect(sock_path)
                break
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        s.settimeout(CHILD_TIMEOUT_S)
        with s, s.makefile("rwb") as f:
            payload = self.request(f, {"op": "figure", "id": "prewarm",
                                       "figure": "fig1"})
            stats = json.loads(self.request(f, {"op": "stats",
                                                "id": "stats"}))
        self.prewarm_metrics = stats["metrics"]
        return payload

    @staticmethod
    def request(f, req):
        """One request on a line-protocol connection; returns the
        reassembled payload (chunks, or a stats reply's data)."""
        f.write(json.dumps(req).encode() + b"\n")
        f.flush()
        data = []
        while True:
            line = f.readline()
            if not line:
                raise OSError("experimentd closed the connection")
            ev = json.loads(line)
            if ev.get("id") != req["id"]:
                continue
            if ev.get("type") == "chunk":
                data.append(ev["data"])
            elif ev.get("type") == "done":
                return "".join(data)
            elif ev.get("type") == "stats":
                return ev["data"]
            elif ev.get("type") in ("error", "rejected"):
                raise OSError("%s failed: %s" % (req["op"], ev))

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / MIB
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def service_session(run, spans):
    """One daemon, one closed-loop client run (when spans is true,
    every other block records spans around itself and each request);
    returns (setup_s, client output, daemon peak RSS)."""
    a = run.args
    d = Daemon(run)
    try:
        argv = [HARNESS, "client", "--socket", "d.sock", "--seed",
                str(a.seed), "--seconds", str(a.seconds), "--golden",
                os.path.join(GOLDEN_DIR, "fig1.txt"), "--daemon-pid",
                str(d.proc.pid)]
        if spans:
            argv.append("--spans")
        c = Child(argv, d.cwd, run.path("client.json"))
        rss = d.peak_rss_mib()
    finally:
        d.stop()
    if not c.ok:
        raise BenchError("service client failed")
    out = last_json(c.stdout)
    stats = json.loads(out["daemon_stats"]) if out["daemon_stats"] else {}
    # The measured phase alone: the daemon's counters minus what the
    # fig1 prewarm left in them.
    out["metrics"] = metrics_delta(stats.get("metrics", {}),
                                   d.prewarm_metrics)
    check_service(run, out)
    return d.setup_s, out, rss


def metrics_delta(after, before):
    """after - before over a metrics registry dump (nested dicts of
    numbers); keys new in after keep their value."""
    if isinstance(after, dict):
        before = before if isinstance(before, dict) else {}
        return {k: metrics_delta(v, before.get(k)) for k, v in after.items()}
    if isinstance(after, (int, float)) and isinstance(before, (int, float)):
        return after - before
    return after


def check_service(run, out):
    """Tally the client's requests and checks; record the work counters
    of the mix's first block, which the seed fixes."""
    reqs = out["requests"]
    # [kind, block, client, status, send, accept, done, golden mismatch,
    #  coalesced, points served, points coalesced, point errors]
    failed = sum(1 for r in reqs if r[3] != "served" or r[7] or r[11])
    run.tally(len(reqs), failed, "service requests")
    run.tally(out["sim_checked"], out["sim_mismatch"],
              "sims differ from the in-process TimingSim")
    block0 = [r for r in reqs if r[1] == 0]
    stable = out["metrics"].get("stable", {})
    # Cycles the daemon simulated for each of block 0's sim and batch
    # configs: a changed simulator changes these.
    sim_cycles = stable.get("gpusim", {}).get("sim", {}).get("cycles", {})
    run.record_counters("service-block", {
        "batch_points": sum(r[9] + r[11] for r in block0),
        "sim_cycles": [sim_cycles.get(label)
                       for label in out["block0_sim_labels"]]})
    # Single flight and the memo make every distinct sim compute and
    # publish exactly once, whichever client asked first; the two
    # clients' batches share their points.
    batches = [sum(1 for r in reqs if r[0] == "batch" and r[2] == c)
               for c in (0, 1)]
    expected = sum(1 for r in reqs if r[0] == "sim") + \
        max(batches) * out["batch_points"]
    for name, got in (("sims run", stable.get("gpusim", {})
                       .get("sims_run", 0)),
                      ("publishes", stable.get("store", {})
                       .get("publishes", 0))):
        run.tally(1, 0 if got == expected else 1, "daemon %s %d, the mix "
                  "needs %d" % (name, got, expected))


def service_layers(run, out):
    reqs = [r for r in out["requests"] if r[3] == "served"]
    warm = [(r[6] - r[4]) * 1e3 for r in reqs if r[0] == "warm"]
    cold = [(r[6] - r[4]) * 1e3 for r in reqs if r[0] != "warm"]
    accept = [(r[5] - r[4]) * 1e3 for r in reqs if r[5] >= 0]
    serve = [(r[6] - r[5]) * 1e3 for r in reqs if r[5] >= 0]
    sims = sum(1 for r in reqs if r[0] == "sim") + sum(r[9] for r in reqs)
    coalesced = sum(r[8] for r in reqs if r[0] == "sim") + \
        sum(r[10] for r in reqs)
    total = len(out["requests"])
    rejected = sum(1 for r in out["requests"] if r[3] == "rejected")

    def tail(values, q):
        # Too few samples beyond the tail make the run fail rather than
        # report a percentile no sample supports.
        ok = benchlib.tail_supported(len(values), q)
        run.tally(1, 0 if ok else 1, "%d samples do not support a p%d"
                  % (len(values), round(q * 100)))
        return benchlib.percentile(values, q) if values else 0.0
    return {
        "service.protocol.parse.us": out["parse_us"],
        "service.protocol.render.us": out["render_us"],
        "service.accept.ms": statistics.median(accept) if accept else 0.0,
        "service.serve.ms": statistics.median(serve) if serve else 0.0,
        "service.coalesce_ratio": ratio(coalesced, sims),
        "service.rejected_frac": ratio(rejected, total),
        "service.warm_p50_ms": statistics.median(warm) if warm else 0.0,
        "service.warm_p99_ms": tail(warm, 0.99),
        "service.warm_samples": len(warm),
        "service.cold_p50_ms": statistics.median(cold) if cold else 0.0,
        "service.cold_p95_ms": tail(cold, 0.95),
        "service.cold_samples": len(cold),
        "service.requests_per_s": ratio(total, out["phase_s"]),
    }


def service_mix(run):
    a = run.args
    if a.trace:
        _, out, _ = service_session(run, spans=True)
        layers = layers_from_program(out["metrics"],
                                     out["recording_thread_insts"])
        layers.update(service_layers(run, out))
        # Blocks with and without spans alternate in the one session.
        walls = {0: [], 1: []}
        for wall, traced in zip(out["block_wall_s"], out["block_spans"]):
            walls[traced].append(wall)
        untraced = statistics.median(walls[0])
        layers["obs.overhead_frac"] = \
            (statistics.median(walls[1]) - untraced) / untraced
        return layers
    setup_s, out, rss = service_session(run, spans=False)
    run.detail.update({k: v for k, v in service_layers(run, out).items()
                       if k.startswith("service.")})
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(out["block_wall_s"]),
        "cpu_s": out["daemon_cpu_s"] / len(out["block_wall_s"]),
        "peak_rss_mib": rss,
    }


WORKLOADS = {"figures_cold": figures_cold, "figures_warm": figures_warm,
             "service_mix": service_mix}


# ------------------------------------------------------------ main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    return a


def main(argv):
    a = parse_args(argv)
    # Metric names and units come from BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)["per_layer" if a.trace else "end_to_end"]
    try:
        build()
        digest = benchlib.source_digest(ROOT, ["src", "tools", "perfbench"])
        print("perfbench env " + json.dumps(environment(digest)),
              flush=True)
        run = Run(a, digest)
        values = WORKLOADS[a.workload](run)
    except BenchError as e:
        log(str(e))
        return 1
    # The mix's counters depend on the seed; the other workloads'
    # inputs are fixed, so their counters must match across seeds.
    key = "%s:%s" % (digest, a.workload)
    if a.workload == "service_mix":
        key += ":%d" % a.seed
    ledger = benchlib.Ledger(os.path.join(BUILD, "perfbench-ledger.json"))
    for label, counters in sorted(run.counters.items()):
        # Only a run without failures may become the reference.
        drift = ledger.check(key + ":" + label, counters,
                             record=run.failed == 0)
        run.tally(1, 1 if drift else 0, "%s counters differ from an "
                  "earlier run of the same code: %s" % (label, drift))
    print("perfbench counters " + json.dumps(run.counters, sort_keys=True))
    if run.detail:
        print("perfbench detail " + json.dumps(run.detail, sort_keys=True))
    # A layer the workload does not touch reads 0; every end-to-end
    # metric must be there.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)
                                          if a.trace else values[m["name"]]),
                           "unit": m["unit"]}
               for m in spec}
    shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
