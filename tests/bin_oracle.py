"""The binning rule one raw value at a time, as a loop over the attributes.

An equivalence oracle for `scorecraft.model._bin_values`: it tries each
rule kind in turn on one value, in the plainest reading of the rule, and
shares no matching code with the package.
"""

import math

from scorecraft.model import CategoryBin, IntervalBin, SpecialBin, number_text


def bin_one(ch, raw):
    """Map a raw value to the characteristic's matching attribute index.

    A raw value is read as the text a data file holds for it: a number as
    its `number_text` (NaN as missing), a text stripped, any other object
    as its str.  Matching is total: Special rules are tried first (exact
    numeric match), then Category membership on the text, then Intervals
    with lo <= v < hi, in declared order within each kind.  Missing values
    (None, NaN, empty text) and anything unmatched fall through to the
    NoInformation attribute.
    """
    if raw is not None and not isinstance(raw, str):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raw = str(raw)
        else:
            raw = None if math.isnan(value) else number_text(value)
    text = (raw or "").strip()
    if text:
        try:
            numeric = float(text)
        except ValueError:
            numeric = math.nan  # matches no special and no interval
        for att in ch.attributes:
            if isinstance(att.bin, SpecialBin) and numeric == att.bin.value:
                return att.att_index
        for att in ch.attributes:
            if isinstance(att.bin, CategoryBin) and text in att.bin.labels:
                return att.att_index
        for att in ch.attributes:
            if isinstance(att.bin, IntervalBin) and att.bin.lo <= numeric < att.bin.hi:
                return att.att_index
    return ch.noinfo.att_index
