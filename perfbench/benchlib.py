"""Pure helpers of the benchmark (perfbench/run.py): statistics, result-line
and metrics parsers, and output checks. Kept free of I/O so that
perfbench/test_benchlib.py can test them directly."""

import math

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
# Result-line keys that legitimately differ between deliveries of one result.
VOLATILE_KEYS = ("id", "name", "cached", "ms")


def percentile(values, q):
    """Nearest-rank percentile q (0..100] of a non-empty sample."""
    s = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1]


def tail(values):
    """(percentile, value, samples) at the highest ladder percentile that
    leaves at least TAIL_MIN_BEYOND samples beyond it. Falls back to the
    median when the sample is too small for any ladder step."""
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return q, percentile(values, q), n
    return 50.0, percentile(values, 50.0), n


def trimmed_mean(values, cut=0.1):
    """Mean of the sample without its lowest and highest `cut` share. One
    client's round trips are bimodal on a shared host (a vCPU runs the same
    request at one of two speeds) and now and then hit a scheduler stall:
    unlike the median it moves smoothly with the mix of the two modes, and
    unlike the mean a stall does not move it."""
    s = sorted(values)
    k = int(len(s) * cut)
    kept = s[k:len(s) - k] or s
    return sum(kept) / len(kept)


def parse_fields(line):
    """Splits a protocol line into its key=value fields; the leading command
    token sits under the empty key. Bare tokens map to "1". Values stay
    escaped, which is enough for comparisons."""
    toks = line.split()
    out = {"": toks[0] if toks else ""}
    for tok in toks[1:]:
        k, sep, v = tok.partition("=")
        out[k] = v if sep else "1"
    return out


def normalize_result(line):
    """A result line without the fields that vary per delivery."""
    return " ".join(t for t in line.split()
                    if t.partition("=")[0] not in VOLATILE_KEYS)


def per_type(fields, suffix):
    """{type index: int value} of the t<k>.<suffix> fields."""
    out = {}
    for k, v in fields.items():
        if k.startswith("t") and k.endswith("." + suffix):
            idx = k[1:-len(suffix) - 1]
            if idx.isdigit():
                out[int(idx)] = int(v)
    return out


def parse_prometheus(text):
    """Parses the `metrics` verb's exposition up to its `# EOF` line into
    {sample name (with labels): float}. Raises ValueError when the body is
    not EOF-framed."""
    out = {}
    for line in text.splitlines():
        if line == "# EOF":
            return out
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    raise ValueError("metrics exposition is missing its # EOF line")


def read_prometheus(lines):
    """Consumes lines up to and including `# EOF` from an iterator of result
    lines and returns the parsed exposition."""
    body = []
    for line in lines:
        body.append(line)
        if line == "# EOF":
            return parse_prometheus("\n".join(body))
    raise ValueError("metrics exposition is missing its # EOF line")


def count_failures(requests, results):
    """Failure accounting for one pass. `requests` lists the request names
    sent; `results` the result lines that came back, in any order. A request
    fails unless a status=ok line carries its name: an error line, a refusal
    (the program answers an unparseable line with an error line under its
    own name, line<n>) and a missing line all count, each request once.
    Returns (attempted, failed, errors, missing), where errors counts the
    error lines and missing the failures no error line accounts for."""
    ok = {}
    errors = 0
    for line in results:
        f = parse_fields(line)
        if f.get("") != "result":
            continue
        if f.get("status") == "ok":
            ok[f.get("name")] = ok.get(f.get("name"), 0) + 1
        else:
            errors += 1
    failed = 0
    for name in requests:
        if ok.get(name, 0) > 0:
            ok[name] -= 1
        else:
            failed += 1
    return len(requests), failed, errors, max(0, failed - errors)

