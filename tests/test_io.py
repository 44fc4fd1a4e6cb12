import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyaig.chain import PosteriorSamples
from polyaig.io import (ParseError, format_rows, parse_counts_csv,
                        parse_reals_csv, read_samples_csv, write_long_csv,
                        write_samples_csv, write_summary_json)

FIXTURE = "data/opioid_deaths.csv"


class TestCountsCsv:
    def test_fixture_first_row(self):
        cm = parse_counts_csv(FIXTURE, id_cols=2)
        assert cm.unit_labels[0] == "CT|2015"
        assert np.array_equal(cm.counts[0], [118, 96, 298, 58, 170, 18])
        assert cm.row_sums[0] == 758
        assert cm.n_units == 6 and cm.n_categories == 6
        assert cm.category_labels[0] == "cocaine"

    def test_non_integer_cell_cited(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("state,year,cocaine,heroin\nCT,2015,12.5,3\n")
        with pytest.raises(ParseError, match=r"bad.csv:2.*cocaine.*12\.5"):
            parse_counts_csv(p, id_cols=2)

    def test_negative_rejected(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("u,a,b\nx,3,-1\n")
        with pytest.raises(ParseError, match="negative"):
            parse_counts_csv(p, id_cols=1)

    def test_all_zero_row_names_unit(self, tmp_path):
        p = tmp_path / "zero.csv"
        p.write_text("u,a,b\nx,1,2\nybad,0,0\n")
        with pytest.raises(ParseError, match="ybad"):
            parse_counts_csv(p, id_cols=1)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="header"):
            parse_counts_csv(p, id_cols=1)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("u,a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            parse_counts_csv(p, id_cols=1)

    def test_zero_id_cols(self, tmp_path):
        p = tmp_path / "noid.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        cm = parse_counts_csv(p, id_cols=0)
        assert cm.n_units == 2
        assert np.array_equal(cm.counts, [[1, 2], [3, 4]])

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("u,a,b\nx,1\n")
        with pytest.raises(ParseError, match="columns"):
            parse_counts_csv(p, id_cols=1)


class TestRealsCsv:
    def test_with_header(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("y\n1.5\n2.0\n")
        assert np.array_equal(parse_reals_csv(p), [1.5, 2.0])

    def test_without_header(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("0.25\n4.0\n")
        assert np.array_equal(parse_reals_csv(p), [0.25, 4.0])

    def test_nonpositive_cited_with_line(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("y\n1.0\n-1.0\n")
        with pytest.raises(ParseError, match="y.csv:3"):
            parse_reals_csv(p)

    def test_malformed_cited(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("y\n1.0\nabc\n")
        with pytest.raises(ParseError, match="y.csv:3"):
            parse_reals_csv(p)

    def test_empty_data(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("y\n")
        with pytest.raises(ParseError, match="no observations"):
            parse_reals_csv(p)


class TestSamplesRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        draws = make_draws()
        samples = PosteriorSamples(draws, ["alpha_1", "alpha_2"],
                                   np.arange(1, draws.shape[0] + 1), meta={})
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples, format_rows(draws))
        iters, back, names = read_samples_csv(path)
        assert names == ["alpha_1", "alpha_2"]
        assert np.array_equal(back, draws)
        assert np.array_equal(iters, samples.iters)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="iter"):
            read_samples_csv(p)

    def test_long_csv(self, tmp_path):
        p = tmp_path / "long.csv"
        write_long_csv(p, ("parameter", "value"), ["alpha_1", "alpha_2"],
                       format_rows([[0.5, 1.25], [0.1, 3.0]]))
        lines = p.read_text().splitlines()
        assert lines == ["parameter,value", "alpha_1,0.5", "alpha_2,1.25",
                         "alpha_1,0.10000000000000001", "alpha_2,3"]

    def test_summary_json_shape(self, tmp_path):
        import json
        p = tmp_path / "summary.json"
        rows = [{"parameter": "alpha", "mean": 1.0, "sd": 0.1, "q025": 0.8,
                 "q25": 0.95, "q50": 1.0, "q75": 1.05, "q975": 1.2,
                 "mcse": 0.01, "ess": 400.0}]
        write_summary_json(p, rows, {"seed": 7, "config": {"thin": 2}})
        data = json.loads(p.read_text())
        assert data["parameters"][0]["parameter"] == "alpha"
        assert data["meta"]["seed"] == 7


def make_draws():
    rng = np.random.default_rng(5)
    return rng.uniform(1e-9, 1e6, size=(40, 2))


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_seventeen_digit_floats_roundtrip(value):
    assert float(f"{value:.17g}") == value
