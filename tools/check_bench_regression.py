#!/usr/bin/env python3
"""Compares two Google Benchmark JSON files and fails on regressions.

Usage:
  tools/check_bench_regression.py BEFORE.json [AFTER.json] \
      [--tolerance 0.10] [--min-speedup X] [--max-counter NAME=VALUE ...] \
      [--equal-counter NAME ...]

For every benchmark name present in both files the median real_time of the
plain iteration runs is compared (aggregate rows such as *_mean/_median
emitted under --benchmark_repetitions are ignored; with a single run the
median is just that run). The check fails when

  * any shared series is slower in AFTER by more than --tolerance
    (default 10%: after > before * 1.10), or
  * --min-speedup X is given and no shared series got at least X times
    faster (before / after >= X) — used to assert that a committed
    before/after pair actually demonstrates the optimisation it claims, or
  * --min-geomean X is given and the geometric mean of the per-series
    speedups (before / after) over the gated series is below X. By default
    every shared series participates; --geomean-filter SUBSTR restricts the
    gate to series whose name contains SUBSTR (e.g. "/64" for the large-n
    acceptance rows) — zero matching series is then a hard error, or
  * --max-counter NAME=VALUE is given and any series in the newest file
    reports a (median) counter NAME above VALUE — used to assert the
    analysis-overhead columns (`analysis_pct` < 5) emitted by E2/E9, or
  * --min-counter NAME=VALUE is given and any series in the newest file
    reports a (median) counter NAME at or below VALUE — used to assert the
    probe-kernel columns actually engaged (`probe_tag_hits` > 0), or
  * --min-ratio BASE:TARGET=X is given and, in the newest file, the median
    real_time of series BASE is less than X times that of series TARGET —
    a within-file speedup floor between two rows of one capture (E10's
    cold row must take >= 2x the warm row's time). The two rows come from
    the same machine and the same run, so the gate is meaningful on any
    capture. With --allow-missing, a ratio whose BASE or TARGET series is
    absent is reported as a note and passes, for rows that only some
    capture machines emit (a thread axis pruned to the machine's cores).
  * --equal-counter NAME is given (two files only) and some shared series
    reports a different (median) counter NAME in AFTER than in BEFORE, or
    reports it in only one of the two files — used to pin machine-
    independent work counters (summaries, combos, game states) across a
    rewrite that must not change them. Series that report NAME in neither
    file are skipped (counter columns differ per benchmark function), but
    at least one shared series must report it.

A series that does NOT report a bounded counter is a hard error: a renamed
or dropped counter must fail the gate, never silently pass it. When the
counter is only emitted by some series of a file by design (the analysis_pct
column comes from one benchmark function per file), pass --allow-missing —
then series without the counter are reported as notes, but at least one
series must still report it.

Benchmarks present in only one file are reported but never fail the check,
so series can be added or retired without touching the gate. With a single
file and --max-counter, the timing comparison is skipped and only the
counter bounds are checked.

--self-test runs the checker against embedded fixtures (exercising the
missing-counter paths) and exits 0 only if every expectation holds; CI runs
it in the lint job so a regression in this gate is itself gated.
"""

import argparse
import json
import math
import os
import statistics
import sys
import tempfile


def load_medians(path):
    """Returns {benchmark name: median real_time} for iteration runs."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip _mean/_median/_stddev aggregate rows
        name = bench["name"]
        times.setdefault(name, []).append(float(bench["real_time"]))
    return {name: statistics.median(vals) for name, vals in times.items()}


def load_counter_medians(path, counter):
    """Returns ({benchmark name: median COUNTER}, [names without it]) over
    the iteration runs."""
    with open(path) as f:
        data = json.load(f)
    values = {}
    missing = set()
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench["name"]
        if counter not in bench:
            missing.add(name)
            continue
        values.setdefault(name, []).append(float(bench[counter]))
    medians = {name: statistics.median(vals) for name, vals in values.items()}
    # A series counts as missing only if no run of it reports the counter.
    return medians, sorted(missing - set(medians))


def check_counter_bounds(path, bounds, allow_missing, lower=False):
    """Fails when any series' median counter violates its bound (above it
    by default, at-or-below it with lower=True), or (unless allow_missing)
    when any series lacks the counter. Returns True on failure."""
    failed = False
    for counter, bound in bounds:
        values, missing = load_counter_medians(path, counter)
        if not values:
            print(f"ERROR: no series in {path} reports counter "
                  f"'{counter}'")
            failed = True
            continue
        for name in missing:
            if allow_missing:
                print(f"note: {name} does not report '{counter}' "
                      f"(--allow-missing)")
            else:
                print(f"   MISSING  {name}: counter '{counter}' absent "
                      f"(pass --allow-missing if intentional)")
                failed = True
        for name, value in sorted(values.items()):
            status = "ok"
            if (value <= bound) if lower else (value > bound):
                status = "UNDER BOUND" if lower else "OVER BOUND"
                failed = True
            print(f"{status:>11}  {name}: {counter} = {value:.3f} "
                  f"({'floor' if lower else 'bound'} {bound:g})")
    return failed


def check_min_ratios(path, ratios, allow_missing):
    """Within-file speedup floors: for each (base, target, floor) the
    median real_time of series `base` must be at least `floor` times the
    median of series `target`, both read from `path`. A missing series is
    a hard error unless allow_missing (then a note — the capture machine
    may legitimately prune the base row). Returns True on failure."""
    medians = load_medians(path)
    failed = False
    for base, target, floor in ratios:
        absent = [n for n in (base, target) if n not in medians]
        if absent:
            for name in absent:
                if allow_missing:
                    print(f"note: ratio series {name} absent from {path} "
                          f"(--allow-missing)")
                else:
                    print(f"ERROR: ratio series {name} absent from {path} "
                          f"(pass --allow-missing if the capture machine "
                          f"prunes it)")
                    failed = True
            continue
        b, t = medians[base], medians[target]
        ratio = b / t if t > 0 else float("inf")
        if ratio < floor:
            print(f"FAIL: {base} is only {ratio:.2f}x the time of {target}, "
                  f"below the required {floor:g}x")
            failed = True
        else:
            print(f"ratio {base} / {target}: {ratio:.2f}x (floor {floor:g}x)")
    return failed


def check_equal_counters(before_path, after_path, counters):
    """Fails when a shared series' median counter differs between the two
    files, or is reported by only one of them, or when no shared series
    reports the counter at all. Returns True on failure."""
    failed = False
    for counter in counters:
        counter_failed = False
        before, _ = load_counter_medians(before_path, counter)
        after, _ = load_counter_medians(after_path, counter)
        shared = set(load_medians(before_path)) & set(load_medians(after_path))
        reporting = sorted(n for n in shared if n in before or n in after)
        if not reporting:
            print(f"ERROR: no shared series reports counter '{counter}'")
            failed = True
            continue
        for name in reporting:
            if name not in before or name not in after:
                side = after_path if name in after else before_path
                print(f"   MISSING  {name}: counter '{counter}' only in "
                      f"{side}")
                counter_failed = True
            elif before[name] != after[name]:
                print(f"  MISMATCH  {name}: {counter} {before[name]:g} -> "
                      f"{after[name]:g}")
                counter_failed = True
        if counter_failed:
            failed = True
        else:
            print(f"equal: '{counter}' on {len(reporting)} shared series")
    return failed


def check_geomean(before, after, shared, min_geomean, substr):
    """Fails when the geometric-mean speedup over the gated series (those
    whose name contains `substr`, or all shared series when substr is None)
    is below `min_geomean`. Returns True on failure."""
    gated = [n for n in shared if substr in n] if substr else list(shared)
    if not gated:
        print(f"ERROR: --geomean-filter {substr!r} matches no shared series")
        return True
    logs = []
    for name in gated:
        b, a = before[name], after[name]
        if a <= 0:
            continue  # degenerate timing; never let it dominate the mean
        logs.append(math.log(b / a))
    gm = math.exp(sum(logs) / len(logs)) if logs else 0.0
    scope = f" matching {substr!r}" if substr else ""
    if gm < min_geomean:
        print(f"FAIL: geomean speedup over {len(gated)} series{scope} is "
              f"{gm:.3f}x, below the required {min_geomean:g}x")
        return True
    print(f"geomean speedup over {len(gated)} series{scope}: {gm:.3f}x "
          f"(floor {min_geomean:g}x)")
    return False


def self_test():
    """Runs the counter gate against embedded fixtures; returns an exit
    code (0 = every expectation held)."""
    def bench(name, **extra):
        return {"name": name, "run_type": "iteration",
                "real_time": 100.0, **extra}

    fixtures = {
        # (bounds, allow_missing, expect_failure)
        "all series report, under bound": (
            [bench("a", c=1.0), bench("b", c=2.0)], False, False),
        "over bound fails": (
            [bench("a", c=9.0)], False, True),
        "missing on one series fails by default": (
            [bench("a", c=1.0), bench("b")], False, True),
        "missing on one series passes with --allow-missing": (
            [bench("a", c=1.0), bench("b")], True, False),
        "counter absent everywhere fails even with --allow-missing": (
            [bench("a"), bench("b")], True, True),
        "aggregate rows never satisfy the counter": (
            [bench("a"), {"name": "a_mean", "run_type": "aggregate",
                          "c": 1.0, "real_time": 100.0}], False, True),
    }

    code = 0
    for label, (benches, allow_missing, expect_failure) in fixtures.items():
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump({"benchmarks": benches}, f)
            path = f.name
        try:
            failed = check_counter_bounds(path, [("c", 5.0)], allow_missing)
        finally:
            os.unlink(path)
        verdict = "ok" if failed == expect_failure else "SELF-TEST FAIL"
        print(f"[{verdict}] {label}")
        if failed != expect_failure:
            code = 1

    # Counter floors (--min-counter): at-or-below the floor must fail.
    floor_fixtures = {
        "counter above floor passes": ([bench("a", c=3.0)], False),
        "counter at floor fails": ([bench("a", c=0.0)], True),
        "floor counter absent fails": ([bench("a")], True),
    }
    for label, (benches, expect_failure) in floor_fixtures.items():
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump({"benchmarks": benches}, f)
            path = f.name
        try:
            failed = check_counter_bounds(path, [("c", 0.0)], False,
                                          lower=True)
        finally:
            os.unlink(path)
        verdict = "ok" if failed == expect_failure else "SELF-TEST FAIL"
        print(f"[{verdict}] {label}")
        if failed != expect_failure:
            code = 1

    # Within-file ratio floors (--min-ratio): the new-series shape of the
    # E9 scaling gate — threads=1 row vs threads=8 row of one capture.
    ratio_series = [bench("tc/t1"), bench("tc/t8")]
    ratio_series[0]["real_time"] = 400.0
    ratio_series[1]["real_time"] = 100.0
    ratio_fixtures = {
        "ratio above floor passes": (
            ratio_series, [("tc/t1", "tc/t8", 2.0)], False, False),
        "ratio below floor fails": (
            ratio_series, [("tc/t1", "tc/t8", 8.0)], False, True),
        "missing base series fails by default": (
            ratio_series, [("tc/t16", "tc/t8", 2.0)], False, True),
        "missing base series passes with --allow-missing": (
            ratio_series, [("tc/t16", "tc/t8", 2.0)], True, False),
    }
    for label, (benches, ratios, allow_missing,
                expect_failure) in ratio_fixtures.items():
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump({"benchmarks": benches}, f)
            path = f.name
        try:
            failed = check_min_ratios(path, ratios, allow_missing)
        finally:
            os.unlink(path)
        verdict = "ok" if failed == expect_failure else "SELF-TEST FAIL"
        print(f"[{verdict}] {label}")
        if failed != expect_failure:
            code = 1

    # Equal-counter gate (--equal-counter): a shared series must report the
    # same counter value in both files.
    equal_fixtures = {
        "equal counters pass": (
            [bench("a", c=3.0), bench("b")], [bench("a", c=3.0), bench("b")],
            False),
        "a changed counter fails": (
            [bench("a", c=3.0)], [bench("a", c=4.0)], True),
        "a counter dropped on one side fails": (
            [bench("a", c=3.0)], [bench("a")], True),
        "a counter no shared series reports fails": (
            [bench("a", c=3.0)], [bench("b", c=3.0)], True),
    }
    for label, (before_benches, after_benches,
                expect_failure) in equal_fixtures.items():
        paths = []
        for benches in (before_benches, after_benches):
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".json", delete=False) as f:
                json.dump({"benchmarks": benches}, f)
                paths.append(f.name)
        try:
            failed = check_equal_counters(paths[0], paths[1], ["c"])
        finally:
            for path in paths:
                os.unlink(path)
        verdict = "ok" if failed == expect_failure else "SELF-TEST FAIL"
        print(f"[{verdict}] {label}")
        if failed != expect_failure:
            code = 1

    # Geomean gate: 2x and 1x speedups geomean to ~1.414x.
    before = {"tc/64": 200.0, "tc/8": 100.0, "other/64": 100.0}
    after = {"tc/64": 100.0, "tc/8": 100.0, "other/64": 100.0}
    shared = sorted(before)
    geomean_fixtures = {
        "geomean over all series fails a 1.3x floor": (1.3, None, True),
        "geomean filtered to tc/64 passes 1.3x": (1.3, "tc/64", False),
        "filter matching nothing is an error": (1.3, "absent", True),
    }
    for label, (floor, substr, expect_failure) in geomean_fixtures.items():
        failed = check_geomean(before, after, shared, floor, substr)
        verdict = "ok" if failed == expect_failure else "SELF-TEST FAIL"
        print(f"[{verdict}] {label}")
        if failed != expect_failure:
            code = 1
    print("self-test " + ("passed" if code == 0 else "FAILED"))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("before", nargs="?", default=None)
    parser.add_argument("after", nargs="?", default=None)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="maximum allowed relative slowdown per series (default 0.10)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="require at least one series to be this many times faster",
    )
    parser.add_argument(
        "--min-geomean",
        type=float,
        default=None,
        help="require the geometric-mean speedup over the gated series "
             "(see --geomean-filter) to reach this factor",
    )
    parser.add_argument(
        "--geomean-filter",
        default=None,
        metavar="SUBSTR",
        help="restrict --min-geomean to series whose name contains SUBSTR",
    )
    parser.add_argument(
        "--max-counter",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fail when any series' median counter NAME exceeds VALUE "
             "(checked in the newest file; repeatable)",
    )
    parser.add_argument(
        "--min-counter",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fail when any series' median counter NAME is at or below "
             "VALUE (checked in the newest file; repeatable)",
    )
    parser.add_argument(
        "--min-ratio",
        action="append",
        default=[],
        metavar="BASE:TARGET=X",
        help="fail unless, in the newest file, the median real_time of "
             "series BASE is at least X times that of series TARGET "
             "(within-file scaling floor; repeatable; --allow-missing "
             "downgrades an absent series to a note)",
    )
    parser.add_argument(
        "--equal-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless every shared series reports the same (median) "
             "counter NAME in both files (repeatable; two files only)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="tolerate series that do not report a bounded counter "
             "(at least one series must still report it)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded fixtures through the counter gate and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.before is None:
        print("ERROR: BEFORE.json required (or --self-test)")
        return 2

    def parse_bounds(specs, flag):
        parsed = []
        for spec in specs:
            name, _, value = spec.partition("=")
            try:
                parsed.append((name, float(value)))
            except ValueError:
                print(f"ERROR: {flag} expects NAME=VALUE, got {spec!r}")
                return None
        return parsed

    bounds = parse_bounds(args.max_counter, "--max-counter")
    floors = parse_bounds(args.min_counter, "--min-counter")
    if bounds is None or floors is None:
        return 2

    ratios = []
    for spec in args.min_ratio:
        pair, _, value = spec.rpartition("=")
        base, sep, target = pair.partition(":")
        try:
            ratios.append((base, target, float(value)))
        except ValueError:
            sep = ""
        if not sep or not base or not target:
            print(f"ERROR: --min-ratio expects BASE:TARGET=X, got {spec!r}")
            return 2

    if args.after is None:
        if args.equal_counter:
            print("ERROR: --equal-counter compares two files")
            return 2
        if not bounds and not floors and not ratios:
            print("ERROR: a single file requires --max-counter, "
                  "--min-counter or --min-ratio")
            return 2
        failed = check_counter_bounds(args.before, bounds,
                                      args.allow_missing)
        if check_counter_bounds(args.before, floors, args.allow_missing,
                                lower=True):
            failed = True
        if ratios and check_min_ratios(args.before, ratios,
                                       args.allow_missing):
            failed = True
        return 1 if failed else 0

    before = load_medians(args.before)
    after = load_medians(args.after)
    shared = sorted(set(before) & set(after))
    if not shared:
        print(f"ERROR: no shared benchmark names between {args.before} and "
              f"{args.after}")
        return 1
    for name in sorted(set(before) ^ set(after)):
        side = args.before if name in before else args.after
        print(f"note: {name} only in {side} (ignored)")

    failed = False
    best_speedup = 0.0
    best_name = None
    for name in shared:
        b, a = before[name], after[name]
        speedup = b / a if a > 0 else float("inf")
        if speedup > best_speedup:
            best_speedup, best_name = speedup, name
        status = "ok"
        if a > b * (1.0 + args.tolerance):
            status = "REGRESSION"
            failed = True
        print(f"{status:>10}  {name}: {b:.0f} -> {a:.0f} ns "
              f"({speedup:.2f}x)")

    if bounds and check_counter_bounds(args.after, bounds,
                                       args.allow_missing):
        failed = True
    if floors and check_counter_bounds(args.after, floors,
                                       args.allow_missing, lower=True):
        failed = True
    if ratios and check_min_ratios(args.after, ratios, args.allow_missing):
        failed = True
    if args.equal_counter and check_equal_counters(args.before, args.after,
                                                   args.equal_counter):
        failed = True
    if failed:
        print(f"FAIL: at least one series regressed by more than "
              f"{args.tolerance:.0%} or a counter gate was violated")
        return 1
    if args.min_speedup is not None:
        if best_speedup < args.min_speedup:
            print(f"FAIL: best speedup {best_speedup:.2f}x ({best_name}) "
                  f"is below the required {args.min_speedup:.2f}x")
            return 1
        print(f"best speedup: {best_speedup:.2f}x ({best_name})")
    if args.min_geomean is not None:
        if check_geomean(before, after, shared, args.min_geomean,
                         args.geomean_filter):
            return 1
    print(f"OK: {len(shared)} series within {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
