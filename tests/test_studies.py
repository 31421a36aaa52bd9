import math
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracheat import (
    ConvergenceTable,
    StudyConfig,
    convergence_study_space,
    convergence_study_time,
    emit_outputs,
    load_config,
    noise_study,
    rate_fit,
    run_inverse_case,
)
from fracheat.grid import make_grid
from fracheat.studies import (
    _VALUES_PER_CHUNK,
    ConvergenceRow,
    _format_values,
    format_float,
    write_csv,
)
from conftest import orthogonal_from_start

# reference error levels of this configuration (h = 1/800, s = 0.5),
# used as a published-values oracle for the rate fitter
TIME_REFINEMENT_U_ERRORS = (1.745e-05, 4.362e-06, 1.089e-06, 2.685e-07, 6.680e-08)
TIME_REFINEMENT_STEPS = (1 / 50, 1 / 100, 1 / 200, 1 / 400, 1 / 800)


class TestRateFit:
    def test_exact_second_order(self):
        assert rate_fit([1.0, 0.25], [1.0, 0.5]) == pytest.approx(2.0)

    def test_exact_first_order(self):
        assert rate_fit([1.0, 0.5, 0.25], [1.0, 0.5, 0.25]) == pytest.approx(1.0)

    def test_published_table_slope(self):
        slope = rate_fit(TIME_REFINEMENT_U_ERRORS, TIME_REFINEMENT_STEPS)
        assert slope == pytest.approx(2.01, abs=0.02)

    @pytest.mark.parametrize("errors,steps", [
        ([1.0], [1.0]),
        ([1.0, 0.0], [1.0, 0.5]),
        ([1.0, 0.5], [1.0, -0.5]),
    ])
    def test_rejects_degenerate_input(self, errors, steps):
        with pytest.raises(ValueError):
            rate_fit(errors, steps)


class TestStudyConfig:
    def test_defaults_valid(self):
        cfg = StudyConfig()
        assert cfg.example == "example1"
        assert cfg.deltas == (0.01, 0.03, 0.05)
        assert cfg.seeds == tuple(range(10))

    @pytest.mark.parametrize("kwargs", [
        dict(example="example9"),
        dict(s=1.5),
        dict(n_values=()),
        dict(source="mystery"),
        dict(scheme="bogus"),
        dict(smooth_window=2),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
        dict(tol=0.0),
        dict(tol=-1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StudyConfig(**kwargs)


class TestConvergenceStudies:
    def test_time_study_small(self):
        cfg = StudyConfig(example="example1", s=0.5, n_values=(50,),
                          m_values=(10, 20, 40))
        table = convergence_study_time(cfg)
        assert len(table.rows) == 3
        assert table.rows[0].order_u is None
        assert table.rows[1].order_u == pytest.approx(2.0, abs=0.3)
        assert table.fitted_order_u() == pytest.approx(2.0, abs=0.3)
        assert table.fitted_order_r() == pytest.approx(2.0, abs=0.3)
        errors = [row.linf_u for row in table.rows]
        assert errors == sorted(errors, reverse=True)

    def test_time_study_deterministic(self):
        cfg = StudyConfig(example="example1", s=0.5, n_values=(30,), m_values=(10, 20))
        t1 = convergence_study_time(cfg)
        t2 = convergence_study_time(cfg)
        assert t1 == t2

    def test_space_study_tau_equals_h(self):
        cfg = StudyConfig(example="example1", s=0.5, n_values=(20, 40), m_values=(1,))
        table = convergence_study_space(cfg)
        assert [row.h for row in table.rows] == [1 / 20, 1 / 40]
        assert [row.tau for row in table.rows] == [1 / 20, 1 / 40]
        assert table.rows[1].linf_u < table.rows[0].linf_u

    @pytest.mark.parametrize("s", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_order_sweep_completes_accurately(self, s):
        # the first benchmark keeps its identifiability margin positive on
        # [0, 1] for every order, so the sweep recovers r cleanly throughout
        res = run_inverse_case("example1", make_grid(1, 1, 100, 100, s))
        assert np.isfinite(res.linf_r)
        assert res.linf_r <= 5e-4

    def test_time_refinement_assembles_once_per_n(self, monkeypatch):
        import fracheat.studies

        built = []
        original = fracheat.studies.assemble

        def counted(grid, scheme="midpoint"):
            built.append(grid.N)
            return original(grid, scheme)

        monkeypatch.setattr(fracheat.studies, "assemble", counted)
        config = StudyConfig(n_values=(40,), m_values=(10, 40, 80))
        table = convergence_study_time(config)
        assert built == [40]
        # the shared operator changes no number: each row as a fresh run gives it
        for row, m in zip(table.rows, config.m_values):
            fresh = run_inverse_case("example1", make_grid(1, 1, 40, m, 0.5))
            assert row.linf_u == fresh.linf_u and row.linf_r == fresh.linf_r

    def test_cg_solver_path_matches_cholesky(self):
        cfg_kwargs = dict(example="example1", s=0.5, n_values=(30,), m_values=(15,))
        direct = convergence_study_time(StudyConfig(solver="cholesky", **cfg_kwargs))
        iterative = convergence_study_time(StudyConfig(solver="cg", tol=1e-13, **cfg_kwargs))
        assert iterative.rows[0].linf_u == pytest.approx(direct.rows[0].linf_u, rel=1e-6)
        assert iterative.rows[0].linf_r == pytest.approx(direct.rows[0].linf_r, rel=1e-6)


class TestNoiseStudy:
    def test_zero_delta_matches_noiseless(self):
        cfg = StudyConfig(example="example1", s=0.5, n_values=(40,), m_values=(40,),
                          deltas=(0.0,), seeds=(0,))
        study = noise_study(cfg)
        case = study.cases[0]
        assert case.completed
        clean = run_inverse_case("example1", make_grid(1, 1, 40, 40, 0.5))
        # the study's one series goes to the modal route, where the batch solves the
        # triangular system and the single case marches: r agrees to 1e-12 of its
        # scale, and so does its error norm, which takes the difference's rounding
        r_scale = float(np.max(np.abs(clean.r_table[:, 1])))
        assert np.max(np.abs(case.r_table[:, 1] - clean.r_table[:, 1])) <= 1e-12 * r_scale
        assert abs(case.linf_r - clean.linf_r) <= 1e-12 * r_scale

    def test_noise_spec_window_honored(self):
        from fracheat import NoiseSpec

        grid = make_grid(1, 1, 40, 40, 0.5)
        spec = NoiseSpec(delta=0.03, seed=1)
        res = run_inverse_case("example1", grid, noise=spec, smooth_window=5)
        assert "smoothed(window=5)" in res.measurement_provenance
        raw = run_inverse_case("example1", grid, noise=spec, smooth_window=1)
        assert "smoothed" not in raw.measurement_provenance

    def test_only_noisy_cases_skip_the_compatibility_warning(self):
        from fracheat import NoiseSpec

        # example 2's window weight at N = 16 misses w(0) by 6 % on exact data
        grid = make_grid(1, 0.1, 16, 4, 0.5)
        with pytest.warns(UserWarning, match="incompatible"):
            run_inverse_case("example2", grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_inverse_case("example2", grid, noise=NoiseSpec(delta=0.03, seed=1))

    @pytest.mark.parametrize("empty", [dict(deltas=()), dict(seeds=())])
    def test_empty_ensemble_rejected(self, empty):
        cfg = StudyConfig(example="example1", n_values=(16,), m_values=(8,), **empty)
        with pytest.raises(ValueError, match="at least one delta and one seed"):
            noise_study(cfg)

    def test_batched_cases_match_single_runs(self):
        # each (delta, seed) case of the one batched march, raw and smoothed,
        # against its own run_inverse_case
        from fracheat import NoiseSpec

        cfg = StudyConfig(example="example1", s=0.5, n_values=(30,), m_values=(30,),
                          deltas=(0.0, 0.01, 0.05), seeds=(0, 4), smooth_window=3)
        study = noise_study(cfg)
        grid = make_grid(1, 1, 30, 30, 0.5)
        for case in study.cases:
            spec = NoiseSpec(delta=case.delta, seed=case.seed)
            raw = run_inverse_case("example1", grid, noise=spec)
            smoothed = run_inverse_case("example1", grid, noise=spec, smooth_window=3)
            assert np.max(np.abs(case.recovered - raw.recovered.values)) <= 1e-12
            assert np.max(np.abs(case.final - raw.trajectory.final)) <= 1e-12
            assert case.linf_r == pytest.approx(raw.linf_r, abs=1e-12)
            assert case.l2_r == pytest.approx(raw.l2_r, abs=1e-12)
            assert case.linf_r_smoothed == pytest.approx(smoothed.linf_r, abs=1e-12)

    @pytest.mark.parametrize("ensemble, tag", [
        (dict(deltas=(0.01, 0.0100000001), seeds=(0,)), "delta0.01_seed0"),
        (dict(deltas=(0.03,), seeds=(0, 0)), "delta0.03_seed0"),
    ], ids=["deltas-equal-to-six-digits", "repeated-seed"])
    def test_cases_sharing_a_file_tag_rejected_before_any_work(self, monkeypatch,
                                                               ensemble, tag):
        import fracheat.studies

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled an operator for a study it rejects")

        monkeypatch.setattr(fracheat.studies, "assemble", no_assembly)
        cfg = StudyConfig(example="example1", n_values=(16,), m_values=(8,), **ensemble)
        with pytest.raises(ValueError, match=f"share the output file tag '{tag}'"):
            noise_study(cfg)

    def test_exact_data_evaluated_once_per_study(self, monkeypatch):
        from fracheat.manufactured import ManufacturedProblem

        r_calls, u_times = [], []
        r_at_midpoints, u_exact = ManufacturedProblem.r_at_midpoints, ManufacturedProblem.u_exact

        def counted_r(self, grid):
            r_calls.append(grid.M)
            return r_at_midpoints(self, grid)

        def counted_u(self, t, x):
            u_times.append(t)
            return u_exact(self, t, x)

        monkeypatch.setattr(ManufacturedProblem, "r_at_midpoints", counted_r)
        monkeypatch.setattr(ManufacturedProblem, "u_exact", counted_u)
        cfg = StudyConfig(example="example1", n_values=(16,), m_values=(16,),
                          deltas=(0.01, 0.05), seeds=(0, 1, 2), smooth_window=3)
        assert len(noise_study(cfg).cases) == 6
        assert r_calls == [16]
        assert u_times == [0.0, 1.0]  # the initial profile, then U^M's comparison

    def test_mean_errors_and_completion(self):
        cfg = StudyConfig(example="example1", s=0.5, n_values=(50,), m_values=(50,),
                          deltas=(0.01, 0.05), seeds=(0, 1, 2))
        study = noise_study(cfg)
        assert study.all_completed
        means = study.mean_linf_r()
        assert means[0.01] <= means[0.05]
        for case in study.cases:
            assert np.isfinite(case.linf_r)


class TestEmitOutputs:
    def test_convergence_table_csv(self, tmp_path):
        cfg = StudyConfig(example="example1", s=0.5, n_values=(30,), m_values=(10, 20))
        table = convergence_study_time(cfg)
        paths = emit_outputs(table, tmp_path)
        text = paths[0].read_text()
        lines = text.splitlines()
        assert lines[0] == "h,tau,linf_u,l2_u,linf_r,order_u,order_r"
        assert len(lines) == 3
        assert text.endswith("\n")
        assert "\r" not in text

    def test_empty_table_header_only(self, tmp_path):
        paths = emit_outputs(ConvergenceTable(rows=(), varied="tau"), tmp_path)
        assert paths[0].read_text() == "h,tau,linf_u,l2_u,linf_r,order_u,order_r\n"

    def test_noise_study_file_naming(self, tmp_path):
        cfg = StudyConfig(example="example1", s=0.5, n_values=(30,), m_values=(30,),
                          deltas=(0.01,), seeds=(0, 3))
        paths = emit_outputs(noise_study(cfg), tmp_path)
        names = sorted(p.name for p in paths)
        assert "r_recovered_delta0.01_seed0.csv" in names
        assert "r_recovered_delta0.01_seed3.csv" in names
        assert "u_final_delta0.01_seed0.csv" in names
        assert "noise_summary.csv" in names

    def test_inverse_result_csv(self, tmp_path):
        res = run_inverse_case("example1", make_grid(1, 1, 30, 20, 0.5))
        paths = emit_outputs(res, tmp_path)
        r_text = (tmp_path / "r_series.csv").read_text().splitlines()
        assert r_text[0] == "t_mid,r_recovered,r_exact,abs_error"
        assert len(r_text) == 21
        u_text = (tmp_path / "u_final.csv").read_text().splitlines()
        assert u_text[0] == "x,u_num,u_exact,abs_error"
        assert len(u_text) == 30

    def test_errors_are_read_from_the_written_tables(self, tmp_path):
        # the norms a result reports and the abs_error column of the CSV it
        # writes come from one subtraction, so they agree bit for bit
        def column(path, name):
            lines = path.read_text().splitlines()
            j = lines[0].split(",").index(name)
            return np.array([float(line.split(",")[j]) for line in lines[1:]])

        grid = make_grid(1, 1, 30, 20, 0.5)
        res = run_inverse_case("example1", grid)
        emit_outputs(res, tmp_path / "inv")
        assert res.linf_u == np.max(column(tmp_path / "inv" / "u_final.csv", "abs_error"))
        assert res.linf_r == np.max(column(tmp_path / "inv" / "r_series.csv", "abs_error"))

        cfg = StudyConfig(example="example1", s=0.5, n_values=(30,), m_values=(20,),
                          deltas=(0.0, 0.01, 0.05), seeds=(0, 3), smooth_window=3)
        emit_outputs(noise_study(cfg), tmp_path / "noise")
        summary = tmp_path / "noise" / "noise_summary.csv"
        rows = zip(column(summary, "delta"), column(summary, "seed"),
                   column(summary, "linf_r"), column(summary, "l2_r"))
        for delta, seed, linf_r, l2_r in rows:
            path = tmp_path / "noise" / f"r_recovered_delta{delta:g}_seed{int(seed)}.csv"
            err = column(path, "abs_error")
            assert linf_r == np.max(err)
            assert l2_r == np.sqrt(grid.tau * np.sum(err * err))

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_outputs(object(), tmp_path)


# every double class a cell can hold: signed zeros, subnormals, NaN, infinities
_CELLS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])


@st.composite
def _labelled_trajectories(draw):
    """Time labels, node labels and a (levels, nodes) block of values."""
    levels, nodes = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    cells = [draw(st.lists(_CELLS, min_size=size, max_size=size))
             for size in (levels, nodes, levels * nodes)]
    return cells[0], cells[1], np.reshape(cells[2], (levels, nodes))


# any bit pattern: NaNs with payloads, infinities, zeros, subnormals and normals
_RAW_DOUBLES = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))


@st.composite
def _near_midpoints(draw):
    """A 17-digit rounding midpoint D + 1/2, or a double next to it, of either sign."""
    digits = draw(st.integers(10**16, 10**17 - 1))
    x = float(f"{digits}5e{draw(st.integers(-330, 330)) - 17}")
    ulps = draw(st.sampled_from([-1, 0, 1]))
    if ulps:
        x = float(np.nextafter(x, ulps * math.inf))
    return -x if draw(st.booleans()) else x


@st.composite
def _float_tables(draw):
    """A (rows, columns) table of any doubles, up to 12 x 9, either side possibly 0."""
    shape = (draw(st.integers(0, 12)), draw(st.integers(0, 9)))
    size = shape[0] * shape[1]
    cells = draw(st.lists(_RAW_DOUBLES | _near_midpoints() | _CELLS,
                          min_size=size, max_size=size))
    return np.reshape(np.array(cells, dtype=float), shape)


def _kernel_lines(values):
    """What the formatting kernel writes for each value, each ending a row."""
    out = _format_values(np.array(values, dtype=float), True)
    return out.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


# |x| in each band fills the kernel's slots alike: fixed-form below 1 (a "0.000"
# prefix), fixed-form from 1 (integer digits) and exponent-form (an "e±XX" slot);
# each band's values are drawn below a bound drawn per chunk, so that chunks of
# one band differ in their widest prefix or integer part too
_BANDS = {
    "fraction": (lambda e: st.floats(10.0**-e, 1.0, exclude_max=True), st.integers(1, 4),
                 lambda a: 1e-4 <= a < 1.0),
    "integer": (lambda e: st.floats(1.0, 10.0**e, exclude_max=True), st.integers(1, 17),
                lambda a: 1.0 <= a < 1e17),
    "exponent": (lambda e: st.floats(1e-279, 1e-4, exclude_max=True) | st.floats(1e17, 1e279),
                 st.just(0), lambda a: a < 1e-4 or a >= 1e17),
}
# values the kernel hands to format_float: signed zeros, nan, infinities, midpoints
_FALLBACKS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]) | _near_midpoints()


@st.composite
def _banded_chunks(draw):
    """1 to 4 chunks of one length, each of one band's values, some mixed with fallbacks.

    Values take either sign and 1 to 17 significant digits, so D often ends in zeros.
    """
    size, chunks = draw(st.integers(1, 24)), []
    for _ in range(draw(st.integers(1, 4))):
        floats, bounds, within = _BANDS[draw(st.sampled_from(sorted(_BANDS)))]
        values = st.builds(lambda x, digits, negative: (-1.0 if negative else 1.0)
                           * float(f"{x:.{digits}g}"),
                           floats(draw(bounds)), st.integers(1, 17), st.booleans())
        values = values.filter(lambda x: within(abs(x)))
        if draw(st.booleans()):
            values = values | _FALLBACKS
        chunks.append(draw(st.lists(values, min_size=size, max_size=size)))
    return chunks


class TestCsvFormat:
    def test_float_full_precision(self):
        x = 1.0 / 3.0
        assert float(format_float(x)) == x
        assert format_float(0.5) == "0.5"

    def test_write_csv_rerun_identical(self, tmp_path):
        rows = [(0.1, 1 / 3), (0.2, 2 / 7)]
        p1 = write_csv(tmp_path / "a.csv", ("x", "y"), rows)
        first = p1.read_bytes()
        p2 = write_csv(tmp_path / "a.csv", ("x", "y"), rows)
        assert p2.read_bytes() == first

    def test_array_rows_match_cell_rows(self, tmp_path, monkeypatch):
        import fracheat.studies

        edge = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324,
                1e308, -1e308, 3.0, -7.0, 1e16, 2.0**53, 0.1, 1.0 / 3.0]
        rng = np.random.default_rng(5)
        n = 3 * len(edge)
        table = np.column_stack((
            np.tile(edge, 3),
            np.repeat([0.0, -0.0, 0.1], len(edge)),  # equal but not the same bits
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            rng.permutation(np.tile(edge, 3)),
            np.repeat(edge, 3),
        ))
        header = ("a", "b", "c", "d", "e")
        cells = write_csv(tmp_path / "cells.csv", header, [tuple(map(float, r)) for r in table])
        # chunks of 7 values over rows of 5, so that chunks start and end mid-row
        monkeypatch.setattr(fracheat.studies, "_VALUES_PER_CHUNK", 7)
        array = write_csv(tmp_path / "array.csv", header, table)
        assert array.read_bytes() == cells.read_bytes()
        assert b",-0," in cells.read_bytes() and b"nan" in cells.read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(table=_float_tables(), chunk=st.integers(1, 50))
    @example(table=np.array([[3, -7, 0], [2**53 + 1, 10**17, -1]]), chunk=4)  # integers
    def test_any_array_matches_cell_rows(self, tmp_path_factory, table, chunk):
        import fracheat.studies

        out = tmp_path_factory.mktemp("array")
        header = tuple(f"c{j}" for j in range(table.shape[1]))
        cells = write_csv(out / "cells.csv", header, [tuple(map(float, r)) for r in table])
        with mock.patch.object(fracheat.studies, "_VALUES_PER_CHUNK", chunk):
            array = write_csv(out / "array.csv", header, table)
        assert array.read_bytes() == cells.read_bytes()

    def test_array_write_memory_is_bounded(self, tmp_path):
        """The chunks bound the write's temporaries, whatever the table's size."""
        table = np.random.default_rng(3).standard_normal((2000, 500))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "wide.csv", tuple(f"c{j}" for j in range(500)), table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=_labelled_trajectories(), chunk=st.sampled_from([1, 2, 3, 5, 7, 4096]))
    @example(case=([0.0, -0.0], [-0.0], np.array([[math.nan], [5e-324]])), chunk=4096)  # N = 2
    @example(case=([1e308, -math.inf], [0.0, -0.0, 1e308],
                   np.array([[-5e-324, math.inf, -0.0], [1e308, 0.0, -1e308]])), chunk=4096)
    def test_labelled_rows_match_cell_rows(self, tmp_path_factory, case, chunk):
        """Chunks cut label runs anywhere, and repeat label periods shorter than themselves."""
        import fracheat.studies

        times, nodes, values = case
        out = tmp_path_factory.mktemp("labelled")
        header = ("t", "x", "u")
        rows = [(t, x, float(values[k, i])) for k, t in enumerate(times)
                for i, x in enumerate(nodes)]
        cells = write_csv(out / "cells.csv", header, rows)
        with mock.patch.object(fracheat.studies, "_VALUES_PER_CHUNK", chunk):
            labelled = write_csv(out / "labelled.csv", header, values, index=(times, nodes))
        assert labelled.read_bytes() == cells.read_bytes()
        for bad_values, index in ((values, (times + [0.0], nodes)), (values, (times, nodes[1:])),
                                  (values.ravel(), (times, nodes))):
            with pytest.raises(ValueError, match="labels"):
                write_csv(out / "bad.csv", header, bad_values, index=index)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(_RAW_DOUBLES | _near_midpoints(), min_size=1, max_size=64))
    @example(values=[99999999999999998.0])  # rounds to 1e17 exactly
    @example(values=[1e-176])  # the double below 1e-176: 17 nines round up, a carry
    @example(values=[123456789012345675.0, 1e-5, 1e-4, 1e16, 1e17, 1e100, 1e-100, -1e100,
                     0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf,
                     -math.inf, math.nan])
    def test_kernel_matches_format_float(self, values):
        assert _kernel_lines(values) == [format_float(v) for v in values]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chunks=_banded_chunks())
    @example(chunks=[[0.5, -0.25, 1e-4], [3.0, -1e16, 1e-5], [1e20, 7.0, math.nan]])
    @example(chunks=[[-0.005, 0.5], [0.005, -0.05], [-0.0005, 0.5]])  # prefixes of 5, 4, 6 bytes
    def test_chunks_of_each_slot_width_match_format_float(self, tmp_path_factory, chunks):
        """Chunks whose slots take different widths sit side by side in one file."""
        import fracheat.studies

        for chunk in chunks:
            assert _kernel_lines(chunk) == [format_float(v) for v in chunk]
        values = np.array(chunks)  # a level a chunk
        times, nodes = np.arange(len(chunks)) / 3.0, np.arange(1, values.shape[1] + 1) / 7.0
        out = tmp_path_factory.mktemp("banded")
        cells = write_csv(out / "cells.csv", ("t", "x", "u"),
                          [(t, x, u) for t, row in zip(times.tolist(), values.tolist())
                           for x, u in zip(nodes.tolist(), row)])
        with mock.patch.object(fracheat.studies, "_VALUES_PER_CHUNK", values.shape[1]):
            labelled = write_csv(out / "labelled.csv", ("t", "x", "u"), values,
                                 index=(times, nodes))
        assert labelled.read_bytes() == cells.read_bytes()

    def test_labelled_write_memory_is_bounded(self, tmp_path):
        """A labelled write peaks at one row buffer beside the kernel's temporaries.

        120,000 values in [0, 1) under one-word labels: the row buffer takes
        0.23 MB and a chunk's bytes, before and after translate, 0.37 MB; the
        kernel frees each temporary after its pass, so the peak stays below
        0.8 MB (it was 1.35 MB when every chunk allocated its rows and kept
        the previous chunk's bytes).
        """
        levels, nodes = 400, 300
        states = np.random.default_rng(6).random((levels, nodes))
        index = (np.arange(levels, dtype=float), np.arange(nodes, dtype=float))
        # the kernel's tables are built outside the trace
        write_csv(tmp_path / "t.csv", ("t", "x", "u"), states[:1], index=(index[0][:1], index[1]))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ("t", "x", "u"), states, index=index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8e6

    def test_labelled_chunks_mix_fallback_values(self, tmp_path, monkeypatch):
        import fracheat.studies

        # 12 values in chunks of 5: nan, zeros, an exact tie (1 + 2^-17 has 18
        # significant digits, the last a 5) and values beyond the kernel's range
        # go through format_float beside values the kernel writes
        values = np.array([[0.1, math.nan, -2.5e-7, 1e-300],
                           [0.0, 123.456, 1.0 + 2.0**-17, -0.0],
                           [1e300, 7.0, -1e-5, 2.0 / 3.0]])
        times, nodes = [0.0, 0.5, 1.0], [0.2, 0.4, 0.6, 0.8]
        header = ("t", "x", "u")
        rows = [(t, x, float(values[k, i])) for k, t in enumerate(times)
                for i, x in enumerate(nodes)]
        cells = write_csv(tmp_path / "cells.csv", header, rows)
        formatted = []

        def recording_format_float(x):
            formatted.append(x)
            return format_float(x)

        monkeypatch.setattr(fracheat.studies, "format_float", recording_format_float)
        monkeypatch.setattr(fracheat.studies, "_VALUES_PER_CHUNK", 5)
        labelled = write_csv(tmp_path / "labelled.csv", header, values, index=(times, nodes))
        assert labelled.read_bytes() == cells.read_bytes()
        assert {1.0 + 2.0**-17, 1e-300, 1e300} <= set(formatted)
        assert not {123.456, 7.0, -1e-5} & set(formatted)

    def test_labelled_write_rebinds_nothing(self, tmp_path):
        """The kernel's tables are built on first use without touching a module global."""
        import sys

        import fracheat.studies

        fracheat.studies._format_tables.cache_clear()
        modules = {name for name in sys.modules if name.startswith("fracheat")}
        before = dict(vars(fracheat.studies))
        write_csv(tmp_path / "t.csv", ("t", "x", "u"), np.full((2, 3), 0.3),
                  index=([0.0, 1.0], [0.25, 0.5, 0.75]))
        after = vars(fracheat.studies)
        assert fracheat.studies._format_tables.cache_info().currsize == 1
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())
        assert {name for name in sys.modules if name.startswith("fracheat")} == modules

    def test_array_rows_edge_shapes(self, tmp_path):
        for shape in ((0, 3), (1, 1), (5, 0)):
            table = np.full(shape, 0.25)
            rows = [tuple(map(float, r)) for r in table]
            header = tuple(f"c{j}" for j in range(shape[1]))
            a = write_csv(tmp_path / "a.csv", header, table).read_bytes()
            b = write_csv(tmp_path / "b.csv", header, rows).read_bytes()
            assert a == b
        with pytest.raises(ValueError, match="2-D"):
            write_csv(tmp_path / "c.csv", ("x",), np.zeros(3))

    def test_labelled_rows_edge_shapes(self, tmp_path):
        for levels, nodes in ((0, 3), (2, 0), (0, 0)):
            path = write_csv(tmp_path / "t.csv", ("t", "x", "u"), np.zeros((levels, nodes)),
                             index=([0.5] * levels, [0.25] * nodes))
            assert path.read_bytes() == b"t,x,u\n"


@st.composite
def _noise_configs(draw):
    """A small noise study of 1 to 40 cases, with smoothing on or off."""
    deltas = draw(st.lists(st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.2]), min_size=1,
                           max_size=4, unique=True))
    seeds = draw(st.lists(st.integers(0, 99), min_size=1, max_size=10, unique=True))
    m = draw(st.integers(3, 12))
    return StudyConfig(example=draw(st.sampled_from(["example1", "example2"])),
                       n_values=(draw(st.integers(3, 12)),), m_values=(m,), deltas=tuple(deltas),
                       seeds=tuple(seeds), smooth_window=draw(st.sampled_from([1, 3])))


class TestNoiseBatchWrite:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(config=_noise_configs(), failed=st.booleans(), chunk=st.sampled_from([5, 7, 130, 4096]))
    @example(config=StudyConfig(n_values=(12,), m_values=(12,), deltas=(0.0, 0.01, 0.03, 0.05),
                                seeds=tuple(range(10)), smooth_window=3), failed=False, chunk=7)
    @example(config=StudyConfig(n_values=(5,), m_values=(4,), deltas=(0.01, 0.05), seeds=(3,)),
             failed=True, chunk=5)
    def test_noise_files_match_files_written_alone(self, tmp_path_factory, config, failed,
                                                   chunk):
        """The batch writes the bytes each file's array path writes, in csv_files order."""
        import fracheat.studies

        build = fracheat.studies.build_manufactured
        with mock.patch.object(fracheat.studies, "build_manufactured",
                               orthogonal_from_start(build) if failed else build), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            study = noise_study(config)
        assert study.all_completed is not failed
        out = tmp_path_factory.mktemp("noise")
        with mock.patch.object(fracheat.studies, "_VALUES_PER_CHUNK", chunk):
            paths = emit_outputs(study, out / "batch")
        files = study.csv_files()
        assert paths == [out / "batch" / name for name, _, _ in files]
        for path, (name, header, rows) in zip(paths, files):
            alone = write_csv(out / "alone" / name, header, rows)
            assert path.read_bytes() == alone.read_bytes(), name

    def test_noise_emit_memory_does_not_grow_with_the_cases(self, tmp_path):
        """120 cases peak less than two kernel chunks' temporaries above 4 (N = M = 64)."""

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        values = np.random.default_rng(2).standard_normal(_VALUES_PER_CHUNK)
        _format_values(values, True)  # build the kernel's tables outside the trace
        chunk = peak(lambda: _format_values(values, True))
        peaks = {}
        for seeds in (1, 30):
            config = StudyConfig(n_values=(64,), m_values=(64,), seeds=tuple(range(seeds)),
                                 deltas=(0.01, 0.02, 0.03, 0.04), smooth_window=5)
            study = noise_study(config)
            peaks[len(study.cases)] = peak(lambda: emit_outputs(study, tmp_path / str(seeds)))
        # a chunk's label words, lines and bytes take less than its kernel temporaries;
        # all 120 cases' cells formatted at once take over three chunks' worth
        assert peaks[120] - peaks[4] < 2 * chunk

    def test_misdeclared_shared_columns_are_rejected(self, tmp_path):
        class Result:
            shared_columns = ("b",)

            def __init__(self, tables):
                self.tables = tables

            def csv_files(self):
                return [(f"{k}.csv", ("a", "b"), t) for k, t in enumerate(self.tables)]

        with pytest.raises(ValueError, match="own"):
            emit_outputs(Result([np.zeros((3, 2))] * 2), tmp_path)
        with pytest.raises(ValueError, match="shape"):
            emit_outputs(Result([np.zeros((3, 2)), np.zeros((4, 2))]), tmp_path)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# study settings\n"
            "example = example2\n"
            "s = 0.25\n"
            "l = 1.0\n"
            "t_final = 2.0\n"
            "n_values = 10, 20\n"
            "m_values = 5\n"
            "deltas = 0.01, 0.05\n"
            "seeds = 0, 1, 2\n"
            "solver = cg\n"
            "tol = 1e-11\n"
            "source = quadrature\n"
            "smooth_window = 5\n"
            "out = results\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.example == "example2"
        assert cfg.s == 0.25
        assert cfg.l == 1.0
        assert cfg.t_final == 2.0
        assert cfg.n_values == (10, 20)
        assert cfg.m_values == (5,)
        assert cfg.deltas == (0.01, 0.05)
        assert cfg.seeds == (0, 1, 2)
        assert cfg.solver == "cg"
        assert cfg.tol == 1e-11
        assert cfg.source == "quadrature"
        assert cfg.smooth_window == 5
        assert cfg.out == "results"

    @pytest.mark.parametrize("field", [f for f in fields(StudyConfig) if f.default is not None],
                             ids=lambda f: f.name)
    def test_every_default_reads_back_from_its_text(self, tmp_path, field):
        # each key's type comes from its field's default: a tuple is a comma list
        default = field.default
        text = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
        path = tmp_path / "default.cfg"
        path.write_text(f"{field.name} = {text}\n", encoding="utf-8")
        value = getattr(load_config(path), field.name)
        assert value == default and type(value) is type(default)

    def test_unknown_solver_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("solver = modl\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown solver 'modl'"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("examploo = example1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected"):
            load_config(path)

    @pytest.mark.parametrize("line", ["s = abc", "seeds = 0, x", "smooth_window = 5.0"])
    def test_bad_number_keeps_location(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# settings\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{path}:2: invalid literal|^{path}:2: could not"):
            load_config(path)
