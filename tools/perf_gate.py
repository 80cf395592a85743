#!/usr/bin/env python3
"""CI perf-regression gate for the tick kernel (DESIGN.md §5e).

Compares a fresh kernel_bench run against the committed baseline
(bench_results/BENCH_kernel.json) and fails when any shared bench's
machine-normalized ns/cell-tick regressed by more than the threshold, or
when a bench that was allocation-free started allocating. Within-run
ratio rules ride along: the observability/ledger tax on the 48-cell config
must stay under its budget, the --math=simd tier must beat the
--math=fast tier by at least --simd-speedup-min on the 384-cell config
(the vectorization guarantee DESIGN.md §5f advertises), and the
--chemistry bucket tier must beat the lead-acid exact kernel by at least
--bucket-speedup-min at the same bank size (DESIGN.md §5i). Datacenter
rows (names starting "dc_") carry three more bounds: the sectioned
checkpoint must stay under CHECKPOINT_BYTES_PER_NODE_MAX bytes per node,
allocs/node-tick may not creep past ALLOC_CREEP_FACTOR x baseline +
ALLOC_CREEP_SLACK, and the machine-normalized checkpoint save and resume
cost per byte may not exceed CHECKPOINT_NS_FACTOR x baseline.

Machines differ, so raw nanoseconds are not comparable across hosts: both
files carry a `calibration_ns` scalar (a fixed dependent-FMA loop timed on
the same host as the bench). The gate compares ns_per_cell_tick divided by
that scalar, which cancels first-order machine-speed differences.

Refreshing the baseline mirrors the golden-file convention
(BAAT_UPDATE_GOLDEN): rerun the full bench on a quiet machine and pass
--update, or run the `bench-kernel` cmake target which writes straight to
bench_results/BENCH_kernel.json.

Every malformed-input path exits with a readable one-line diagnosis (exit
code 2), never a traceback: a gate that crashes looks like CI
infrastructure flakiness and gets retried instead of read.

Usage:
  perf_gate.py --baseline bench_results/BENCH_kernel.json \
               --current build/bench/BENCH_kernel.json [--threshold 0.15]
  perf_gate.py --baseline ... --current ... --update
  perf_gate.py --self-test
"""

import argparse
import json
import shutil
import sys

# Datacenter rows: per-node telemetry state is O(1), so a checkpoint is
# about 1 KB per node; the bound leaves room for growth but catches any
# per-node history sneaking back in.
DC_PREFIX = "dc_"
CHECKPOINT_BYTES_PER_NODE_MAX = 2048.0
# Allocation creep: a day pipeline that allocates a little must not drift
# back up. The slack keeps near-zero baselines from failing on one stray
# allocation per few hundred node-ticks.
ALLOC_CREEP_FACTOR = 1.25
ALLOC_CREEP_SLACK = 0.005
# Checkpoint save and resume run at memory speed, but file I/O sits inside
# the timing, so the bound is looser than the 15% ns/node-tick rule.
CHECKPOINT_NS_FACTOR = 1.5
CHECKPOINT_NS_KEYS = ("checkpoint_ns_per_byte", "resume_ns_per_byte")


class Refusal(SystemExit):
    """A readable refusal of malformed input: exit code 2, with the diagnosis
    kept for the caller to print (1 is reserved for a perf regression)."""

    def __init__(self, msg):
        super().__init__(2)
        self.msg = msg


def fail(msg):
    """Readable gate failure: diagnosis on stderr, exit 2 (1 = perf regression)."""
    raise Refusal(f"perf_gate: {msg}")


def numeric(doc_path, key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(f"{doc_path}: '{key}' must be a number, got {value!r}")
    return float(value)


def field(doc_label, bench, key):
    """A bench's numeric field, or a readable refusal (exit 2) when the
    result file predates the field."""
    if key not in bench:
        fail(f"{doc_label}: bench '{bench['name']}' is missing '{key}' — "
             "result file and bench binary are out of sync; rerun the bench "
             "(and refresh the baseline with --update)")
    return numeric(doc_label, f"{bench['name']}.{key}", bench[key])


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or "calibration_ns" not in doc or "benches" not in doc:
        fail(f"{path} is not a kernel_bench result file "
             "(needs 'calibration_ns' and 'benches')")
    if numeric(path, "calibration_ns", doc["calibration_ns"]) <= 0:
        fail(f"{path} has a non-positive calibration scalar "
             f"({doc['calibration_ns']!r}); rerun kernel_bench on a quiet machine")
    if not isinstance(doc["benches"], list):
        fail(f"{path}: 'benches' must be a list")
    for i, b in enumerate(doc["benches"]):
        if not isinstance(b, dict) or "name" not in b:
            fail(f"{path}: bench entry #{i} has no 'name'")
        for key in ("ns_per_cell_tick", "allocs_per_tick"):
            if key not in b:
                fail(f"{path}: bench '{b['name']}' is missing '{key}' — "
                     "baseline and bench binary are out of sync; refresh the "
                     "baseline with --update")
            numeric(path, f"{b['name']}.{key}", b[key])
        if b["ns_per_cell_tick"] <= 0:
            fail(f"{path}: bench '{b['name']}' has non-positive ns_per_cell_tick "
                 f"({b['ns_per_cell_tick']!r})")
    return doc


def gate(base, cur, threshold):
    """Compare two loaded docs; returns (report_lines, failure_lines)."""
    base_by_name = {b["name"]: b for b in base["benches"]}
    cur_by_name = {b["name"]: b for b in cur["benches"]}

    shared = [n for n in base_by_name if n in cur_by_name]
    if not shared:
        fail("no benches shared between baseline and current run")

    lines = []
    failures = []
    for name in shared:
        b, c = base_by_name[name], cur_by_name[name]
        b_norm = b["ns_per_cell_tick"] / base["calibration_ns"]
        c_norm = c["ns_per_cell_tick"] / cur["calibration_ns"]
        ratio = c_norm / b_norm
        flag = ""
        if ratio > 1.0 + threshold:
            flag = "  REGRESSED"
            failures.append(f"{name}: normalized ns/cell-tick {ratio:.2f}x baseline "
                            f"(limit {1.0 + threshold:.2f}x)")
        # An allocation-free loop that starts allocating is a regression at
        # any speed — per-tick heap traffic is what the kernel removed.
        if b["allocs_per_tick"] < 0.005 and c["allocs_per_tick"] >= 0.005:
            flag += "  ALLOCATES"
            failures.append(f"{name}: allocs/tick {c['allocs_per_tick']:.4f} "
                            f"(baseline {b['allocs_per_tick']:.4f})")
        lines.append(f"{name:16s} baseline {b['ns_per_cell_tick']:8.2f} ns  "
                     f"current {c['ns_per_cell_tick']:8.2f} ns  "
                     f"normalized ratio {ratio:5.2f}x{flag}")

    for name in base_by_name:
        if name not in cur_by_name:
            failures.append(f"{name}: present in baseline but missing from current run")
    return shared, lines, failures


def obs_tax(doc, threshold):
    """Instrumented-vs-off comparison inside one run: the ledger/obs tax on
    the 48-cell config must stay under `threshold`. Both numbers come from
    the same process on the same host, so no calibration is involved. Older
    result files without the obs-off bench are skipped, not failed."""
    by_name = {b["name"]: b for b in doc["benches"]}
    on = by_name.get("fleet_48")
    off = by_name.get("fleet_48_obs_off")
    if on is None or off is None:
        return [], []
    tax = on["ns_per_cell_tick"] / off["ns_per_cell_tick"] - 1.0
    lines = [f"obs+ledger tax   instrumented {on['ns_per_cell_tick']:8.2f} ns  "
             f"obs-off {off['ns_per_cell_tick']:8.2f} ns  tax {tax * 100:+5.1f}%"]
    failures = []
    if tax > threshold:
        failures.append(f"obs+ledger tax {tax * 100:.1f}% on fleet_48 exceeds the "
                        f"{threshold * 100:.0f}% budget (instrumented "
                        f"{on['ns_per_cell_tick']:.2f} ns vs obs-off "
                        f"{off['ns_per_cell_tick']:.2f} ns per cell-tick)")
    return lines, failures


def simd_speedup(doc, minimum):
    """Fast-vs-simd comparison inside one run: the lane-batched tier must
    beat the scalar fast tier by at least `minimum` on the 384-cell config.
    Both rows are min-over-segments from the same process on the same host
    (kernel_bench interleaves their repeats), so no calibration is involved.
    Result files without the pair — older baselines, or a build with
    BAAT_SIMD gating — are skipped, not failed."""
    by_name = {b["name"]: b for b in doc["benches"]}
    fast = by_name.get("fleet_384_fast")
    simd = by_name.get("fleet_384_simd")
    if fast is None or simd is None:
        return [], []
    speedup = fast["ns_per_cell_tick"] / simd["ns_per_cell_tick"]
    lines = [f"simd speedup     fast {fast['ns_per_cell_tick']:8.2f} ns  "
             f"simd {simd['ns_per_cell_tick']:8.2f} ns  "
             f"speedup {speedup:5.2f}x (min {minimum:.2f}x)"]
    failures = []
    if speedup < minimum:
        failures.append(f"simd speedup {speedup:.2f}x on fleet_384 is below the "
                        f"{minimum:.2f}x floor (fast "
                        f"{fast['ns_per_cell_tick']:.2f} ns vs simd "
                        f"{simd['ns_per_cell_tick']:.2f} ns per cell-tick)")
    return lines, failures


def sharding_tax(doc, threshold):
    """Within-run comparison for datacenter_bench results: the 100k-cell /
    16-shard flagship must not pay more than `threshold` per node-tick over
    the unsharded reference config (same per-shard node count and demand, so
    the ratio isolates the sharding layer's merge/dispatch overhead). Files
    without the pair — kernel_bench results, quick-mode runs — are skipped,
    not failed."""
    by_name = {b["name"]: b for b in doc["benches"]}
    ref = by_name.get("dc_ref_6250")
    sharded = by_name.get("dc_100k_16shard")
    if ref is None or sharded is None:
        return [], []
    tax = sharded["ns_per_cell_tick"] / ref["ns_per_cell_tick"] - 1.0
    lines = [f"sharding tax     16-shard {sharded['ns_per_cell_tick']:8.2f} ns  "
             f"unsharded {ref['ns_per_cell_tick']:8.2f} ns  tax {tax * 100:+5.1f}%"]
    failures = []
    if tax > threshold:
        failures.append(f"sharding tax {tax * 100:.1f}% on dc_100k_16shard exceeds "
                        f"the {threshold * 100:.0f}% budget (sharded "
                        f"{sharded['ns_per_cell_tick']:.2f} ns vs unsharded "
                        f"{ref['ns_per_cell_tick']:.2f} ns per node-tick)")
    return lines, failures


def bucket_speedup(doc, minimum):
    """Within-run comparison for the energy-bucket chemistry tier: its
    384-cell row must beat the lead-acid exact kernel at the same bank size
    by at least `minimum` — the cheapness guarantee the --chemistry bucket
    tier exists for (DESIGN.md §5i). Both rows are min-over-segments from
    the same process on the same host, so no calibration is involved. Files
    without the pair — older baselines, datacenter results — are skipped,
    not failed."""
    by_name = {b["name"]: b for b in doc["benches"]}
    exact = by_name.get("fleet_384")
    bucket = by_name.get("fleet_384_bucket")
    if exact is None or bucket is None:
        return [], []
    speedup = exact["ns_per_cell_tick"] / bucket["ns_per_cell_tick"]
    lines = [f"bucket speedup   exact {exact['ns_per_cell_tick']:7.2f} ns  "
             f"bucket {bucket['ns_per_cell_tick']:7.2f} ns  "
             f"speedup {speedup:5.2f}x (min {minimum:.2f}x)"]
    failures = []
    if speedup < minimum:
        failures.append(f"bucket speedup {speedup:.2f}x on fleet_384 is below the "
                        f"{minimum:.2f}x floor (exact "
                        f"{exact['ns_per_cell_tick']:.2f} ns vs bucket "
                        f"{bucket['ns_per_cell_tick']:.2f} ns per cell-tick)")
    return lines, failures


def checkpoint_bytes(doc, limit):
    """Every datacenter row must keep its sectioned checkpoint under `limit`
    bytes per node. Files without datacenter rows (kernel results) are
    skipped; a datacenter row without the field is refused readably."""
    lines, failures = [], []
    for b in doc["benches"]:
        if not b["name"].startswith(DC_PREFIX):
            continue
        per_node = field("current run", b, "checkpoint_bytes_per_node")
        lines.append(f"{b['name']:16s} checkpoint {per_node:8.0f} B/node "
                     f"(max {limit:.0f})")
        if per_node > limit:
            failures.append(f"{b['name']}: checkpoint {per_node:.0f} B/node exceeds the "
                            f"{limit:.0f} B/node bound")
    return lines, failures


def alloc_creep(base, cur, factor, slack):
    """Every datacenter row shared with the baseline must keep allocs per
    node-tick within factor x baseline + slack — allocation may not creep
    back before it reaches the allocation-free rule in gate()."""
    base_by_name = {b["name"]: b for b in base["benches"]}
    lines, failures = [], []
    for c in cur["benches"]:
        name = c["name"]
        if not name.startswith(DC_PREFIX) or name not in base_by_name:
            continue
        was = field("baseline", base_by_name[name], "allocs_per_tick")
        now = field("current run", c, "allocs_per_tick")
        limit = was * factor + slack
        lines.append(f"{name:16s} allocs/tick {now:.4f} (baseline {was:.4f}, "
                     f"max {limit:.4f})")
        if now > limit:
            failures.append(f"{name}: allocs/tick {now:.4f} exceeds {limit:.4f} "
                            f"(baseline {was:.4f} x {factor:.2f} + {slack})")
    return lines, failures


def checkpoint_speed(base, cur, factor):
    """Every datacenter row shared with the baseline must keep its
    calibration-normalized checkpoint and resume ns per byte within
    factor x baseline. A row without either field is refused readably."""
    base_by_name = {b["name"]: b for b in base["benches"]}
    lines, failures = [], []
    for c in cur["benches"]:
        name = c["name"]
        if not name.startswith(DC_PREFIX) or name not in base_by_name:
            continue
        for key in CHECKPOINT_NS_KEYS:
            was = field("baseline", base_by_name[name], key)
            now = field("current run", c, key)
            if was <= 0:
                fail(f"baseline: bench '{name}' has non-positive '{key}' ({was!r})")
            ratio = (now / cur["calibration_ns"]) / (was / base["calibration_ns"])
            lines.append(f"{name:16s} {key} {now:.3f} (baseline {was:.3f}, "
                         f"normalized ratio {ratio:.2f}x, max {factor:.2f}x)")
            if ratio > factor:
                failures.append(f"{name}: normalized {key} {ratio:.2f}x baseline "
                                f"(limit {factor:.2f}x)")
    return lines, failures


def self_test():
    """Exercise the malformed-input paths in-process; exits non-zero on bugs."""
    import copy
    import os
    import tempfile

    good = {"calibration_ns": 2.0,
            "benches": [{"name": "tick", "ns_per_cell_tick": 10.0,
                         "allocs_per_tick": 0.0}]}

    def expect_exit(label, fn):
        try:
            fn()
        except SystemExit as e:
            # Any traceback-free refusal is a pass; argparse-style int codes ok.
            msg = getattr(e, "msg", str(e.code))
            assert "Traceback" not in msg, label
            return msg
        raise AssertionError(f"{label}: expected a readable gate failure, got none")

    def check_load(label, doc, needle):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            path = f.name
        try:
            msg = expect_exit(label, lambda: load(path))
            assert needle in msg, f"{label}: diagnosis {msg!r} lacks {needle!r}"
        finally:
            os.unlink(path)

    # 1. zero / negative / absent / non-numeric calibration
    zero_cal = copy.deepcopy(good)
    zero_cal["calibration_ns"] = 0
    check_load("zero calibration", zero_cal, "calibration")
    neg_cal = copy.deepcopy(good)
    neg_cal["calibration_ns"] = -1.0
    check_load("negative calibration", neg_cal, "calibration")
    no_cal = copy.deepcopy(good)
    del no_cal["calibration_ns"]
    check_load("absent calibration", no_cal, "calibration_ns")
    str_cal = copy.deepcopy(good)
    str_cal["calibration_ns"] = "fast"
    check_load("string calibration", str_cal, "number")

    # 2. bench entry missing a key (baseline older than the bench binary)
    no_key = copy.deepcopy(good)
    del no_key["benches"][0]["allocs_per_tick"]
    check_load("missing bench key", no_key, "allocs_per_tick")
    zero_ns = copy.deepcopy(good)
    zero_ns["benches"][0]["ns_per_cell_tick"] = 0.0
    check_load("zero ns baseline", zero_ns, "non-positive")

    # 3. unreadable / malformed files
    msg = expect_exit("missing file", lambda: load("/nonexistent/BENCH.json"))
    assert "cannot read" in msg, msg
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        f.write("{not json")
        path = f.name
    try:
        msg = expect_exit("malformed json", lambda: load(path))
        assert "not valid JSON" in msg, msg
    finally:
        os.unlink(path)

    # 4. disjoint bench sets refuse rather than vacuously pass
    other = {"calibration_ns": 2.0,
             "benches": [{"name": "other", "ns_per_cell_tick": 5.0,
                          "allocs_per_tick": 0.0}]}
    expect_exit("no shared benches", lambda: gate(good, other, 0.15))

    # 5. the obs-tax rule: over-budget fails, within-budget and absent pass
    taxed = {"calibration_ns": 2.0,
             "benches": [{"name": "fleet_48", "ns_per_cell_tick": 11.0,
                          "allocs_per_tick": 0.0},
                         {"name": "fleet_48_obs_off", "ns_per_cell_tick": 10.0,
                          "allocs_per_tick": 0.0}]}
    _, failures = obs_tax(taxed, 0.05)
    assert any("tax" in f for f in failures), failures
    _, failures = obs_tax(taxed, 0.15)
    assert not failures, failures
    _, failures = obs_tax(good, 0.05)  # no obs-off bench: skipped, not failed
    assert not failures, failures

    # 5b. the simd-speedup rule: below-floor fails, at/above passes, and a
    # run without the fast/simd pair (e.g. BAAT_SIMD gated off) is skipped
    paired = {"calibration_ns": 2.0,
              "benches": [{"name": "fleet_384_fast", "ns_per_cell_tick": 50.0,
                           "allocs_per_tick": 0.0},
                          {"name": "fleet_384_simd", "ns_per_cell_tick": 30.0,
                           "allocs_per_tick": 0.0}]}
    _, failures = simd_speedup(paired, 2.0)
    assert any("speedup" in f for f in failures), failures
    _, failures = simd_speedup(paired, 1.5)
    assert not failures, failures
    _, failures = simd_speedup(good, 2.0)  # no simd pair: skipped, not failed
    assert not failures, failures

    # 5b2. the bucket-speedup rule: below-floor fails, at/above passes, and
    # a run without the exact/bucket pair is skipped, not failed
    bucketed = {"calibration_ns": 2.0,
                "benches": [{"name": "fleet_384", "ns_per_cell_tick": 200.0,
                             "allocs_per_tick": 0.0},
                            {"name": "fleet_384_bucket", "ns_per_cell_tick": 50.0,
                             "allocs_per_tick": 0.0}]}
    _, failures = bucket_speedup(bucketed, 5.0)
    assert any("bucket speedup" in f for f in failures), failures
    _, failures = bucket_speedup(bucketed, 4.0)
    assert not failures, failures
    _, failures = bucket_speedup(good, 5.0)  # no bucket pair: skipped
    assert not failures, failures

    # 5c. the sharding-tax rule: over-budget fails, within-budget passes,
    # and a file without the datacenter pair (kernel results) is skipped
    dc = {"calibration_ns": 2.0,
          "benches": [{"name": "dc_ref_6250", "ns_per_cell_tick": 100.0,
                       "allocs_per_tick": 0.1},
                      {"name": "dc_100k_16shard", "ns_per_cell_tick": 140.0,
                       "allocs_per_tick": 0.1}]}
    _, failures = sharding_tax(dc, 0.25)
    assert any("sharding tax" in f for f in failures), failures
    _, failures = sharding_tax(dc, 0.50)
    assert not failures, failures
    _, failures = sharding_tax(good, 0.25)  # no datacenter pair: skipped
    assert not failures, failures

    # 5d. the checkpoint-bytes rule: over the bound fails, under passes, a
    # file without datacenter rows is skipped and a datacenter row without
    # the field is a readable refusal
    ckpt = {"calibration_ns": 2.0,
            "benches": [{"name": "dc_ref_6250", "ns_per_cell_tick": 100.0,
                         "allocs_per_tick": 0.01, "checkpoint_bytes_per_node": 1066.0}]}
    _, failures = checkpoint_bytes(ckpt, 2048.0)
    assert not failures, failures
    fat = copy.deepcopy(ckpt)
    fat["benches"][0]["checkpoint_bytes_per_node"] = 66600.0
    _, failures = checkpoint_bytes(fat, 2048.0)
    assert any("B/node" in f for f in failures), failures
    _, failures = checkpoint_bytes(good, 2048.0)  # no datacenter rows: skipped
    assert not failures, failures
    no_ckpt = copy.deepcopy(ckpt)
    del no_ckpt["benches"][0]["checkpoint_bytes_per_node"]
    msg = expect_exit("missing checkpoint field",
                      lambda: checkpoint_bytes(no_ckpt, 2048.0))
    assert "checkpoint_bytes_per_node" in msg, msg

    # 5e. the alloc-creep rule: creep past factor x baseline + slack fails,
    # within it (and near-zero noise under the slack) passes, and a row
    # without allocs_per_tick is a readable refusal
    crept = copy.deepcopy(ckpt)
    crept["benches"][0]["allocs_per_tick"] = 0.02
    _, failures = alloc_creep(ckpt, crept, 1.25, 0.005)
    assert any("allocs/tick" in f for f in failures), failures
    near = copy.deepcopy(ckpt)
    near["benches"][0]["allocs_per_tick"] = 0.0175
    _, failures = alloc_creep(ckpt, near, 1.25, 0.005)
    assert not failures, failures
    zero = copy.deepcopy(ckpt)
    zero["benches"][0]["allocs_per_tick"] = 0.0
    noisy = copy.deepcopy(zero)
    noisy["benches"][0]["allocs_per_tick"] = 0.004
    _, failures = alloc_creep(zero, noisy, 1.25, 0.005)
    assert not failures, failures
    _, failures = alloc_creep(good, good, 1.25, 0.005)  # no datacenter rows
    assert not failures, failures
    no_allocs = copy.deepcopy(ckpt)
    del no_allocs["benches"][0]["allocs_per_tick"]
    msg = expect_exit("missing allocs field",
                      lambda: alloc_creep(ckpt, no_allocs, 1.25, 0.005))
    assert "allocs_per_tick" in msg, msg

    # 5f. the checkpoint-speed rule: within factor x baseline passes, past
    # it fails (after calibration), and a row without the field is a
    # readable refusal
    timed = copy.deepcopy(ckpt)
    timed["benches"][0]["checkpoint_ns_per_byte"] = 2.0
    timed["benches"][0]["resume_ns_per_byte"] = 3.0
    ok = copy.deepcopy(timed)
    ok["benches"][0]["resume_ns_per_byte"] = 4.4
    _, failures = checkpoint_speed(timed, ok, 1.5)
    assert not failures, failures
    slow_resume = copy.deepcopy(timed)
    slow_resume["benches"][0]["resume_ns_per_byte"] = 4.6
    _, failures = checkpoint_speed(timed, slow_resume, 1.5)
    assert any("resume_ns_per_byte" in f for f in failures), failures
    # A host twice as slow (calibration 4.0) may take twice the time.
    slow_host = copy.deepcopy(timed)
    slow_host["calibration_ns"] = 4.0
    slow_host["benches"][0]["checkpoint_ns_per_byte"] = 5.0
    _, failures = checkpoint_speed(timed, slow_host, 1.5)
    assert not failures, failures
    slow_save = copy.deepcopy(timed)
    slow_save["benches"][0]["checkpoint_ns_per_byte"] = 3.2
    _, failures = checkpoint_speed(timed, slow_save, 1.5)
    assert any("checkpoint_ns_per_byte" in f for f in failures), failures
    _, failures = checkpoint_speed(good, good, 1.5)  # no datacenter rows
    assert not failures, failures
    untimed = copy.deepcopy(timed)
    del untimed["benches"][0]["resume_ns_per_byte"]
    msg = expect_exit("missing resume field",
                      lambda: checkpoint_speed(timed, untimed, 1.5))
    assert "resume_ns_per_byte" in msg, msg
    try:
        checkpoint_speed(timed, untimed, 1.5)
    except SystemExit as e:
        assert e.code == 2, f"a missing field must exit 2, not {e.code!r}"

    # 6. the happy path still gates
    slow = copy.deepcopy(good)
    slow["benches"][0]["ns_per_cell_tick"] = 100.0
    _, _, failures = gate(good, slow, 0.15)
    assert any("baseline" in f for f in failures), failures
    _, _, clean = gate(good, copy.deepcopy(good), 0.15)
    assert not clean, clean
    missing_cur = copy.deepcopy(good)
    missing_cur["benches"] = [{"name": "extra", "ns_per_cell_tick": 5.0,
                               "allocs_per_tick": 0.0},
                              dict(good["benches"][0])]
    _, _, failures = gate(missing_cur, {"calibration_ns": 2.0,
                                        "benches": [dict(good["benches"][0])]}, 0.15)
    assert any("missing from current" in f for f in failures), failures

    print("perf_gate: self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed BENCH_kernel.json")
    ap.add_argument("--current", help="freshly measured BENCH_kernel.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed normalized slowdown (default 0.15 = 15%%)")
    ap.add_argument("--obs-tax-threshold", type=float, default=0.05,
                    help="max allowed instrumented-vs-obs-off overhead on the "
                         "48-cell config (default 0.05 = 5%%)")
    ap.add_argument("--simd-speedup-min", type=float, default=2.0,
                    help="min required fast/simd ns ratio on the 384-cell "
                         "config (default 2.0 = simd at least 2x faster)")
    ap.add_argument("--bucket-speedup-min", type=float, default=5.0,
                    help="min required lead-acid-exact/bucket ns ratio on the "
                         "384-cell config (default 5.0 = the energy-bucket "
                         "chemistry tier at least 5x faster)")
    ap.add_argument("--sharding-tax-threshold", type=float, default=0.25,
                    help="max allowed 16-shard-vs-unsharded ns/node-tick "
                         "overhead in datacenter_bench results (default "
                         "0.25 = 25%% — the 100k-cell row's working set is "
                         "~16x the reference's, so cache/TLB effects put "
                         "double-digit noise on the within-run ratio)")
    ap.add_argument("--update", action="store_true",
                    help="copy --current over --baseline instead of gating")
    ap.add_argument("--self-test", action="store_true",
                    help="exercise the malformed-input guards and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required unless --self-test")

    if args.update:
        try:
            shutil.copyfile(args.current, args.baseline)
        except OSError as e:
            fail(f"cannot refresh baseline: {e.strerror or e}")
        print(f"perf_gate: baseline {args.baseline} refreshed from {args.current}")
        return

    base = load(args.baseline)
    cur = load(args.current)
    shared, lines, failures = gate(base, cur, args.threshold)
    tax_lines, tax_failures = obs_tax(cur, args.obs_tax_threshold)
    lines += tax_lines
    failures += tax_failures
    simd_lines, simd_failures = simd_speedup(cur, args.simd_speedup_min)
    lines += simd_lines
    failures += simd_failures
    bucket_lines, bucket_failures = bucket_speedup(cur, args.bucket_speedup_min)
    lines += bucket_lines
    failures += bucket_failures
    shard_lines, shard_failures = sharding_tax(cur, args.sharding_tax_threshold)
    lines += shard_lines
    failures += shard_failures
    ckpt_lines, ckpt_failures = checkpoint_bytes(cur, CHECKPOINT_BYTES_PER_NODE_MAX)
    lines += ckpt_lines
    failures += ckpt_failures
    creep_lines, creep_failures = alloc_creep(base, cur, ALLOC_CREEP_FACTOR,
                                              ALLOC_CREEP_SLACK)
    lines += creep_lines
    failures += creep_failures
    speed_lines, speed_failures = checkpoint_speed(base, cur, CHECKPOINT_NS_FACTOR)
    lines += speed_lines
    failures += speed_failures
    for line in lines:
        print(line)

    if failures:
        print("\nperf_gate: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf the change is an accepted tradeoff, refresh the baseline on a\n"
              "quiet machine: cmake --build build --target bench-kernel\n"
              "(or rerun kernel_bench and pass --update).", file=sys.stderr)
        sys.exit(1)
    print(f"perf_gate: OK ({len(shared)} benches within "
          f"{args.threshold * 100:.0f}% of baseline)")


if __name__ == "__main__":
    try:
        main()
    except Refusal as e:
        print(e.msg, file=sys.stderr)
        sys.exit(2)
