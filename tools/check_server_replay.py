#!/usr/bin/env python3
"""Replays a JSONL request file through qcont_server and validates the run.

Usage:
  tools/check_server_replay.py --server build/examples/qcont_server \
      --cli build/examples/qcont_cli --requests tools/server_requests.jsonl \
      [--threads 8] [--min-hit-rate 1.0]

Four gates, all of which must hold:

  1. Schema: one response line per request, in request order, each a valid
     schema-v1 object (status/cache enums, id echo, result/error shape).

  2. Oracle: every "ok" response is re-checked against the one-shot CLI —
     `qcont_cli contains` exit code vs `result.contained`, `qcont_cli eval`
     tuples vs `result.tuples` as a set, `qcont_cli analyze --json` report
     vs `result.report`. The server's cache and coalescing must never change
     a verdict. Eval tuples must also arrive already sorted (the
     `EvaluateGoal` contract), whether rendered on a miss or replayed from
     the eval cache.

  3. Cache hit rate: requests tagged `"note": "dup"` (the duplicate /
     alpha-renamed tail of the replay file) must answer from cache — cache
     marker "hit" or "coalesced" — at a rate of at least --min-hit-rate.
     The canonical-hash plan cache makes this deterministic, so the default
     requires every tagged request to hit.

  4. Artifact reuse: requests tagged `"note": "dup-program"` (the
     repeated-program tail — one Π resubmitted with fresh *cyclic* queries,
     so every request misses the verdict cache and routes to the general
     engine) must each reuse the frozen program artifact rather than
     re-expanding the kind space. The server is run with --metrics and the
     `typeengine.artifact.hits` counter must be at least the number of
     tagged requests (hit rate >= 1.0 on the tail; the promise-based build
     coalescing in ProgramArtifactCache makes the count
     schedule-independent).

Exit code: 0 = all gates pass, 1 = a gate failed, 2 = usage error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

VALID_STATUS = {"ok", "error", "deadline_exceeded", "overloaded"}
VALID_CACHE = {"hit", "miss", "coalesced", "none"}


def fail(msg):
    print(f"FAIL: {msg}")
    return False


def validate_schema(request, response, index):
    """Gate 1: response shape. Returns True when valid."""
    ok = True
    if response.get("schema_version") != 1:
        ok = fail(f"response {index}: schema_version != 1: {response}")
    if response.get("id") != request.get("id"):
        ok = fail(f"response {index}: id echo mismatch "
                  f"({response.get('id')!r} != {request.get('id')!r})")
    if response.get("op") != request.get("op"):
        ok = fail(f"response {index}: op echo mismatch: {response}")
    if response.get("status") not in VALID_STATUS:
        ok = fail(f"response {index}: bad status: {response.get('status')!r}")
    if response.get("cache") not in VALID_CACHE:
        ok = fail(f"response {index}: bad cache: {response.get('cache')!r}")
    elapsed = response.get("elapsed_us")
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        ok = fail(f"response {index}: bad elapsed_us: {elapsed!r}")
    if response.get("status") == "ok":
        if not isinstance(response.get("result"), dict):
            ok = fail(f"response {index}: ok without result object")
    else:
        if not isinstance(response.get("error"), dict):
            ok = fail(f"response {index}: non-ok without error object")
    return ok


def parse_metrics(stderr):
    """Parses the `name value` lines qcont_server --metrics prints after
    the `== metrics ==` marker on stderr."""
    metrics = {}
    seen_marker = False
    for line in stderr.splitlines():
        if line.strip() == "== metrics ==":
            seen_marker = True
            continue
        if not seen_marker:
            continue
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            metrics[parts[0]] = int(parts[1])
    return metrics


def run_cli(cli, args, stdin=None):
    proc = subprocess.run([cli] + args, capture_output=True, text=True,
                          input=stdin)
    return proc.returncode, proc.stdout, proc.stderr


def with_temp(texts):
    """Writes each text to a temp file; returns the paths (caller removes)."""
    paths = []
    for text in texts:
        f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
        f.write(text)
        f.close()
        paths.append(f.name)
    return paths


def parse_cli_tuples(stdout):
    """`qcont_cli eval` prints one `goal(a,b)` line per tuple."""
    tuples = []
    for line in stdout.splitlines():
        line = line.strip()
        if not line or "(" not in line:
            continue
        inner = line[line.index("(") + 1:line.rindex(")")]
        tuples.append([v.strip() for v in inner.split(",")] if inner else [])
    return sorted(tuples)


def check_oracle(cli, request, response, index):
    """Gate 2: verdict equality against the one-shot CLI."""
    if response.get("status") != "ok":
        return fail(f"response {index}: status "
                    f"{response.get('status')!r}, expected ok "
                    f"(replay files contain only valid requests)")
    op = request["op"]
    result = response["result"]
    paths = []
    try:
        if op == "containment":
            paths = with_temp([request["program"], request["query"]])
            code, out, err = run_cli(cli, ["contains"] + paths)
            if code not in (0, 1):
                return fail(f"response {index}: oracle errored "
                            f"(exit {code}): {err.strip()}")
            oracle = code == 0
            if result.get("contained") != oracle:
                return fail(f"response {index}: contained="
                            f"{result.get('contained')} but oracle says "
                            f"{oracle}\n{out}")
        elif op == "eval":
            paths = with_temp([request["program"], request["database"]])
            code, out, err = run_cli(cli, ["eval"] + paths)
            if code != 0:
                return fail(f"response {index}: oracle errored "
                            f"(exit {code}): {err.strip()}")
            oracle = parse_cli_tuples(out)
            emitted = result.get("tuples", [])
            got = sorted(emitted)
            if got != oracle:
                return fail(f"response {index}: tuples {got} != oracle "
                            f"{oracle}")
            if emitted != got:
                return fail(f"response {index}: tuples not emitted in "
                            f"sorted order: {emitted}")
        elif op == "analyze":
            texts = [request["query"]]
            if "program" in request:
                texts.append(request["program"])
            paths = with_temp(texts)
            code, out, err = run_cli(cli, ["analyze", "--json"] + paths)
            if code != 0:
                return fail(f"response {index}: oracle errored "
                            f"(exit {code}): {err.strip()}")
            oracle = json.loads(out)
            if result.get("report") != oracle:
                return fail(f"response {index}: analysis report differs "
                            f"from oracle\nserver: {result.get('report')}\n"
                            f"oracle: {oracle}")
        else:
            return fail(f"request {index}: unknown op {op!r} in replay file")
    finally:
        for p in paths:
            os.unlink(p)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--server", required=True)
    parser.add_argument("--cli", required=True)
    parser.add_argument("--requests", required=True)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--min-hit-rate", type=float, default=1.0,
                        help="required cache-hit rate over requests tagged "
                             "\"note\": \"dup\" (default 1.0)")
    args = parser.parse_args()

    with open(args.requests) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    requests = [json.loads(l) for l in lines]

    proc = subprocess.run(
        [args.server, f"--threads={args.threads}", "--metrics"],
        input="\n".join(lines) + "\n", capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL: server exited {proc.returncode}: {proc.stderr}")
        return 1
    replies = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(replies) != len(requests):
        print(f"FAIL: {len(requests)} requests but {len(replies)} responses")
        return 1

    ok = True
    responses = []
    for i, line in enumerate(replies):
        try:
            responses.append(json.loads(line))
        except json.JSONDecodeError as e:
            print(f"FAIL: response {i} is not JSON ({e}): {line}")
            return 1
    for i, (request, response) in enumerate(zip(requests, responses)):
        ok &= validate_schema(request, response, i)
        ok &= check_oracle(args.cli, request, response, i)

    tagged = [(req, resp) for req, resp in zip(requests, responses)
              if req.get("note") == "dup"]
    if not tagged:
        print("FAIL: replay file has no \"note\": \"dup\" requests to "
              "measure the cache on")
        return 1
    hits = sum(1 for _, resp in tagged
               if resp.get("cache") in ("hit", "coalesced"))
    rate = hits / len(tagged)
    print(f"cache: {hits}/{len(tagged)} tagged duplicates answered from "
          f"cache (rate {rate:.2f}, required {args.min_hit_rate:.2f})")
    if rate < args.min_hit_rate:
        ok = fail(f"duplicate-tail hit rate {rate:.2f} below "
                  f"{args.min_hit_rate:.2f}")

    # Gate 4: the repeated-program tail must run off the shared artifact.
    dup_programs = sum(1 for req in requests
                       if req.get("note") == "dup-program")
    if dup_programs == 0:
        ok = fail("replay file has no \"note\": \"dup-program\" requests "
                  "to measure artifact reuse on")
    else:
        metrics = parse_metrics(proc.stderr)
        artifact_hits = metrics.get("typeengine.artifact.hits", 0)
        print(f"artifact: {artifact_hits} kind-space reuses over "
              f"{dup_programs} repeated-program requests")
        if artifact_hits < dup_programs:
            ok = fail(f"typeengine.artifact.hits = {artifact_hits} < "
                      f"{dup_programs} dup-program requests: the repeated "
                      f"program re-expanded its kind space")

    if ok:
        print(f"OK: {len(requests)} requests replayed, verdicts match the "
              f"one-shot CLI, schema valid")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
