#!/usr/bin/env python3
"""Self-test for the metrics.tfcb decoding in tools/telemetry_schema.py.

Every spill is built inline: a well-formed version 2 spill must validate,
and each corrupt variant (or a missing file) must be rejected with the
matching message.

Run: python3 tests/telemetry_schema_test.py
"""

import importlib.util
import struct
import tempfile
import unittest
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "tools" / "telemetry_schema.py"
_spec = importlib.util.spec_from_file_location("telemetry_schema", SCHEMA_PATH)
schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(schema)


def spill(runs, version=2, names=("q", "r"), ticks=(0, 10000, 20000)):
    """A spill over `names` and tick times `ticks`, followed by `runs`, each
    (series_id, first_tick, ticks, v)."""
    out = b"TFCB" + struct.pack("<II", version, len(names))
    out += struct.pack("<QQ", len(ticks), len(runs))
    for name in names:
        out += struct.pack("<I", len(name)) + name.encode()
    for t in ticks:
        out += struct.pack("<q", t)
    for run in runs:
        out += struct.pack("<IIId", *run)
    return out


GOOD_RUNS = [(0, 0, 2, 1.5), (0, 2, 1, 3.0), (1, 1, 2, 7.0)]


class TfcbDecodeTest(unittest.TestCase):
    def check(self, data):
        """Validates `data` as a spill (None: no file); returns (sample
        count, errors)."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "metrics.tfcb"
            if data is not None:
                path.write_bytes(data)
            ck = schema.Checker()
            samples = schema.check_metrics_tfcb(path, ck)
        return samples, ck.errors

    def assert_rejected(self, data, want):
        _, errors = self.check(data)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn(want, errors[0])

    def test_well_formed_version_2_spill_passes(self):
        samples, errors = self.check(spill(GOOD_RUNS))
        self.assertEqual(errors, [])
        self.assertEqual(samples, 5)  # summed run ticks

    def test_missing_file_is_rejected(self):
        self.assert_rejected(None, "missing")

    def test_bad_magic_is_rejected(self):
        self.assert_rejected(b"JUNK" + spill(GOOD_RUNS)[4:], "bad magic")

    def test_zero_tick_run_is_rejected(self):
        self.assert_rejected(spill([(0, 0, 0, 1.0)]), "covers zero ticks")

    def test_run_past_tick_count_is_rejected(self):
        self.assert_rejected(spill([(0, 2, 2, 1.0)]),
                             "ends at tick 4, past tick_count 3")

    def test_version_1_header_is_rejected(self):
        self.assert_rejected(spill(GOOD_RUNS, version=1), "version must be 2, got 1")

    def test_truncated_body_is_rejected(self):
        self.assert_rejected(spill(GOOD_RUNS)[:-1], "header promises 3 ticks and 3 runs")

    def test_out_of_range_series_is_rejected(self):
        self.assert_rejected(spill([(2, 0, 1, 1.0)]), "out-of-range series 2")

    def test_overlapping_runs_are_rejected(self):
        self.assert_rejected(spill([(0, 0, 2, 1.0), (0, 1, 2, 2.0)]),
                             "out of order or overlaps")


if __name__ == "__main__":
    unittest.main()
