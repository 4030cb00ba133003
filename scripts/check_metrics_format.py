#!/usr/bin/env python3
"""check_metrics_format: strict validator for the Prometheus text
exposition page daisyd serves (the Metrics wire message / daisy-cli
``.metrics`` / ``daisyd --metrics-dump``).

Checks, line by line:

  * ``# TYPE <family> <counter|gauge|histogram>`` appears before any
    sample of the family, at most once per family;
  * ``# HELP`` lines name a family that gets a TYPE;
  * sample names are valid metric identifiers, labels parse as
    ``key="value"`` pairs, values are integers (the registry is integral);
  * counter samples are non-negative;
  * every histogram family emits cumulative ``_bucket{le=...}`` series
    ending in ``le="+Inf"``, plus ``_sum`` and ``_count``, with
    non-decreasing bucket counts and ``_count`` equal to the +Inf bucket.

``--require FAM[,FAM...]`` additionally demands at least one family per
given prefix — CI uses
``--require daisy_engine,daisy_persist,daisy_server,daisy_storage`` to prove
the scrape crosses all four layers.

Usage: check_metrics_format.py [PAGE_FILE] [--require PREFIXES]
(reads stdin when no file is given). Exit 0 = valid, 1 = findings,
2 = usage error.
"""

import argparse
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?\d+)$")
LABEL_RE = re.compile(r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
VALID_TYPES = ("counter", "gauge", "histogram")


def base_family(sample_name, types):
    """Maps a histogram sample name back to its family: the _bucket/_sum/
    _count suffixes belong to the declared histogram family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if types.get(family) == "histogram":
                return family
    return sample_name


def parse_labels(labels):
    """Splits 'a="b",c="d"' into pairs; returns None on malformed input."""
    out = {}
    # Split on commas not inside quotes (values are escaped strings).
    parts, depth, cur = [], False, ""
    i = 0
    while i < len(labels):
        c = labels[i]
        if c == '"' and (i == 0 or labels[i - 1] != "\\"):
            depth = not depth
        if c == "," and not depth:
            parts.append(cur)
            cur = ""
        else:
            cur += c
        i += 1
    if cur:
        parts.append(cur)
    for part in parts:
        if not LABEL_RE.match(part):
            return None
        key, value = part.split("=", 1)
        out[key] = value[1:-1]
    return out


def validate(text):
    """Returns a list of finding strings (empty = valid page)."""
    findings = []
    types = {}          # family -> declared type
    helps = set()       # families with a HELP line
    seen_samples = {}   # family -> list of (labels_dict, int value)

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            findings.append("line %d: blank line" % lineno)
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            family = rest.split(" ", 1)[0]
            if not NAME_RE.match(family):
                findings.append("line %d: bad HELP family %r"
                                % (lineno, family))
            helps.add(family)
            continue
        if line.startswith("# TYPE "):
            fields = line[len("# TYPE "):].split(" ")
            if len(fields) != 2 or not NAME_RE.match(fields[0]):
                findings.append("line %d: malformed TYPE line" % lineno)
                continue
            family, kind = fields
            if kind not in VALID_TYPES:
                findings.append("line %d: unknown type %r" % (lineno, kind))
            if family in types:
                findings.append("line %d: duplicate TYPE for %s"
                                % (lineno, family))
            if family in seen_samples:
                findings.append("line %d: TYPE for %s after its samples"
                                % (lineno, family))
            types[family] = kind
            continue
        if line.startswith("#"):
            findings.append("line %d: unknown comment form" % lineno)
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            findings.append("line %d: malformed sample: %r" % (lineno, line))
            continue
        name, labels, value = m.group("name"), m.group("labels"), int(
            m.group("value"))
        label_map = {} if labels is None else parse_labels(labels)
        if label_map is None:
            findings.append("line %d: malformed labels: %r"
                            % (lineno, labels))
            continue
        family = base_family(name, types)
        if family not in types:
            findings.append("line %d: sample %s has no preceding TYPE"
                            % (lineno, name))
            continue
        if types[family] == "counter" and value < 0:
            findings.append("line %d: negative counter %s" % (lineno, name))
        seen_samples.setdefault(family, []).append((name, label_map, value))

    for family in helps:
        if family not in types:
            findings.append("HELP without TYPE for %s" % family)

    # Histogram shape: per labelled series (the le label aside), cumulative
    # buckets up to +Inf plus exactly one _sum and one _count.
    for family, kind in types.items():
        if kind != "histogram":
            continue
        samples = seen_samples.get(family, [])

        def series_key(label_map):
            return tuple(sorted((k, v) for k, v in label_map.items()
                                if k != "le"))

        series = {}
        for (n, l, v) in samples:
            entry = series.setdefault(series_key(l),
                                      {"buckets": [], "sums": [],
                                       "counts": []})
            if n == family + "_bucket":
                entry["buckets"].append((l, v))
            elif n == family + "_sum":
                entry["sums"].append(v)
            elif n == family + "_count":
                entry["counts"].append(v)
        if not series:
            findings.append("histogram %s has no samples" % family)
            continue
        for key, entry in series.items():
            where = "%s{%s}" % (family,
                                ",".join("%s=%r" % kv for kv in key))
            if not entry["buckets"]:
                findings.append("histogram %s has no _bucket series" % where)
                continue
            if len(entry["sums"]) != 1 or len(entry["counts"]) != 1:
                findings.append("histogram %s needs exactly one _sum and "
                                "one _count" % where)
                continue
            les = [l.get("le") for (l, v) in entry["buckets"]]
            if any(le is None for le in les):
                findings.append("histogram %s bucket missing le label"
                                % where)
                continue
            if les[-1] != "+Inf":
                findings.append("histogram %s buckets do not end at "
                                "le=\"+Inf\"" % where)
            values = [v for (l, v) in entry["buckets"]]
            if any(lo > hi for lo, hi in zip(values, values[1:])):
                findings.append("histogram %s buckets are not cumulative"
                                % where)
            if entry["counts"][0] != values[-1]:
                findings.append("histogram %s _count (%d) != +Inf bucket "
                                "(%d)" % (where, entry["counts"][0],
                                          values[-1]))

    return findings, types


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("page", nargs="?",
                        help="exposition page file (default: stdin)")
    parser.add_argument("--require", default="",
                        help="comma-separated family prefixes that must "
                             "each match at least one family")
    args = parser.parse_args(argv)

    if args.page:
        try:
            with open(args.page, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print("check_metrics_format: %s" % e, file=sys.stderr)
            return 2
    else:
        text = sys.stdin.read()

    if not text:
        print("check_metrics_format: empty page", file=sys.stderr)
        return 1

    findings, types = validate(text)
    for prefix in filter(None, args.require.split(",")):
        if not any(family.startswith(prefix) for family in types):
            findings.append("required family prefix %r matches nothing"
                            % prefix)

    for finding in findings:
        print(finding)
    if findings:
        print("check_metrics_format: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    print("check_metrics_format: ok (%d families)" % len(types))
    return 0


if __name__ == "__main__":
    sys.exit(main())
