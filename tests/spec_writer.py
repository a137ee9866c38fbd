"""Writes a `ScorecardSpec` back to the spec CSV format.

The inverse of `scorecraft.model.parse_spec`, for round-trip tests:
`parse_spec(write_spec(spec)) == spec` for every valid spec.
"""

import csv
import io
import math

from scorecraft.model import (
    SPEC_HEADER,
    CategoryBin,
    IntervalBin,
    SpecialBin,
    format_tag,
    number_text,
)


def write_spec(spec):
    """Serialize a spec to the CSV format that parse_spec reads."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SPEC_HEADER)
    for ch, att in spec.iter_attributes():
        lo = hi = cats = ""
        rule = att.bin
        if isinstance(rule, SpecialBin):
            kind = "special"
            lo = number_text(rule.value)
        elif isinstance(rule, IntervalBin):
            kind = "interval"
            if math.isfinite(rule.lo):
                lo = number_text(rule.lo)
            if math.isfinite(rule.hi):
                hi = number_text(rule.hi)
        elif isinstance(rule, CategoryBin):
            kind = "category"
            cats = "|".join(sorted(rule.labels))
        else:
            kind = "noinfo"
        writer.writerow(
            [ch.name, att.att_index, att.label, kind, lo, hi, cats, format_tag(att.tag)]
        )
    return out.getvalue()
