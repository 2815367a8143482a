import csv
import hashlib
import io
import math
from concurrent.futures import Future
from importlib import resources

import pytest

from latcode import cli, codebook, lattice
from latcode import numberfield as nf


def run_cli(args, capsys=None, path=None):
    code = cli.main(args)
    return code


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return comments, rows


class TestInvariantsCommand:
    def test_table_matches_predictions(self, tmp_path):
        out = tmp_path / "inv.csv"
        assert cli.main(["invariants", "--out", str(out)]) == 0
        comments, rows = read_csv(out)
        assert comments[0].startswith("# latcode ")
        assert any(c.startswith("# seed:") for c in comments)
        names = {r["field"] for r in rows}
        assert {"Qi", "Qsqrt2", "F4-725", "F8-17"} <= names
        for r in rows:
            assert float(r["nsv_mismatch"]) <= 1e-8
            assert float(r["ndp_mismatch"]) <= 1e-8
            assert r["dp_exact"] == "True"

    def test_single_field_selection(self, tmp_path):
        out = tmp_path / "inv.csv"
        assert cli.main(["invariants", "--field", "Qzeta5",
                         "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r["field"] for r in rows] == ["Qzeta5"]

    def test_catalog_path(self, tmp_path):
        text = resources.files("latcode").joinpath("data/fields.cat").read_text()
        assert text.count("name = Qzeta5\n") == 1
        catalog = tmp_path / "renamed.cat"
        catalog.write_text(text.replace("name = Qzeta5\n", "name = Z5\n"))
        out, ref = tmp_path / "inv.csv", tmp_path / "ref.csv"
        assert cli.main(["invariants", "--catalog", str(catalog),
                         "--field", "Z5", "--out", str(out)]) == 0
        assert cli.main(["invariants", "--field", "Qzeta5",
                         "--out", str(ref)]) == 0
        _, rows = read_csv(out)
        _, ref_rows = read_csv(ref)
        assert rows == [dict(ref_rows[0], field="Z5")]

    def test_unknown_field_fails(self, tmp_path, capsys):
        out = tmp_path / "inv.csv"
        assert cli.main(["invariants", "--field", "nope",
                         "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err


class TestRatesCommand:
    def test_rate_values(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert cli.main(["rates", "--snr", "20", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        by_model = {r["channel"]: r for r in rows}
        pe = math.pi * math.e
        want = math.log2(100.0) - math.log2(2 * 92.368 / pe)
        assert float(by_model["awgn_complex"]["rate_bits"]) == \
            pytest.approx(want, rel=1e-10)
        gap = float(by_model["rayleigh_real"]["gap_bits"])
        assert gap == pytest.approx(0.5 * math.log2(2 * 1058.0 / pe), rel=1e-10)


class TestBoundsCommand:
    def test_contains_reference_rows(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        by_label = {r["label"]: r for r in rows}
        assert float(by_label["martinet_gap_complex_gaussian"]["rate_bits"]) \
            == pytest.approx(4.43513005498, abs=1e-9)
        assert float(by_label["minkowski_limit_gap_real_fading"]["rate_bits"]) \
            == pytest.approx(0.395599455708, abs=1e-9)
        assert len(rows) == 10


class TestIdealCommand:
    def test_qsqrt_minus5_values(self, tmp_path):
        out = tmp_path / "ideal.csv"
        assert cli.main(["ideal", "--field", "Qsqrt-5",
                         "--out", str(out)]) == 0
        _, rows = read_csv(out)
        by_ideal = {r["ideal"]: r for r in rows}
        assert float(by_ideal["unit"]["min_I"]) == pytest.approx(1.0, rel=1e-9)
        assert float(by_ideal["p2"]["min_I"]) == pytest.approx(
            math.sqrt(2), rel=1e-9)
        # the class group has order 2, realized by norms {1, 2}
        assert by_ideal["p2"]["principal"] == "False"
        assert int(by_ideal["p2"]["n_min"]) == 2
        pred = float(by_ideal["p2"]["ndp_idealform_pred"])
        assert pred == pytest.approx(
            math.sqrt(2) * math.sqrt(2) / 20.0 ** 0.25, rel=1e-9)


class TestSimulateCommand:
    ARGS = ["simulate", "--field", "F4-725", "--model", "awgn_real",
            "--rate", "1", "--snr", "12", "--trials", "400", "--seed", "7"]

    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert cli.main(self.ARGS + ["--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        r = rows[0]
        assert int(r["trials"]) == 400
        assert 0.0 <= float(r["pe_nld"]) <= 1.0
        assert float(r["pe_ml"]) <= float(r["pe_nld"]) + 1e-12
        assert r["chernoff_bound"] == ""  # awgn has no fading bound

    def test_seed_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(self.ARGS + ["--out", str(out1)]) == 0
        assert cli.main(self.ARGS + ["--out", str(out2)]) == 0
        assert out1.read_bytes().replace(b"a.csv", b"") == \
            out2.read_bytes().replace(b"b.csv", b"")

    def test_worker_count_invariance(self, tmp_path):
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert cli.main(self.ARGS + ["--workers", "1",
                                     "--out", str(out1)]) == 0
        assert cli.main(self.ARGS + ["--workers", "2",
                                     "--out", str(out2)]) == 0
        _, r1 = read_csv(out1)
        _, r2 = read_csv(out2)
        assert r1[0]["errors_nld"] == r2[0]["errors_nld"]
        assert r1[0]["errors_ml"] == r2[0]["errors_ml"]

    def test_awgn_nld_reduces_independently_of_trials(self, monkeypatch):
        # the AWGN lattice is the code lattice, so its reduction is shared
        # by every trial
        calls = []
        real_lll = lattice._lll
        monkeypatch.setattr(lattice, "_lll",
                            lambda B: calls.append(1) or real_lll(B))
        f = nf.catalog_field("F4-725")
        counts = []
        for trials in (5, 40):
            calls.clear()
            # a cold code lattice, whatever ran before
            codebook.code_lattice.cache_clear()
            cli.simulate_point(f, "awgn_real", 1.0, 10.0, trials, 7,
                               which="nld")
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_rayleigh_reports_fading_bound(self, tmp_path):
        out = tmp_path / "ray.csv"
        args = ["simulate", "--field", "F4-725", "--model", "rayleigh_real",
                "--rate", "1", "--snr", "24", "--trials", "100", "--seed", "7",
                "--out", str(out)]
        assert cli.main(args) == 0
        _, rows = read_csv(out)
        assert 0.0 < float(rows[0]["chernoff_bound"]) <= 1.0

    def test_incompatible_field_model(self, tmp_path, capsys):
        args = ["simulate", "--field", "F4-725", "--model", "awgn_complex",
                "--snr", "10", "--out", str(tmp_path / "x.csv")]
        assert cli.main(args) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_missing_field_fails(self, tmp_path, capsys):
        # no catalog field is taken by default, not even one the model fits
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--model", "awgn_complex", "--snr", "10",
                         "--trials", "10", "--out", str(out)]) == 1
        assert "simulate requires --field" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_snr_fails(self, capsys):
        assert cli.main(["simulate", "--field", "F4-725",
                         "--model", "awgn_real"]) == 1

    def test_pool_is_at_most_the_cpu_count_wide(self, monkeypatch):
        """More workers than CPUs split the trials into as many chunks, run
        on a pool of ``os.cpu_count()`` processes: the counts are those of
        one worker.  The pool is a fake that runs each chunk inline."""
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                self.max_workers, self.chunks = max_workers, []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.chunks.append(args[3:5])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        f = nf.catalog_field("Qsqrt2")
        want = cli.simulate_point(f, "awgn_real", 1.0, 10.0, 40, 3)[1:]
        for cpus, width in ((3, 3), (None, 1), (64, 8)):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            pools.clear()
            got = cli.simulate_point(f, "awgn_real", 1.0, 10.0, 40, 3,
                                     workers=8)[1:]
            assert got == want
            assert [p.max_workers for p in pools] == [width]
            assert len(pools[0].chunks) == 8
            assert pools[0].chunks[0][0] == 0 and pools[0].chunks[-1][1] == 40

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_fail(self, tmp_path, capsys, workers):
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--field", "F4-725", "--model",
                         "awgn_real", "--snr", "10", "--trials", "10",
                         "--workers", workers, "--out", str(out)]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestSeedRange:
    """A seed is a 64-bit integer, signed or unsigned: [-2^63, 2^64)."""

    @pytest.mark.parametrize("seed", [2 ** 64, -2 ** 63 - 1])
    def test_outside_is_a_typed_error(self, tmp_path, capsys, seed):
        # 2^64 ended in a bare OverflowError traceback from Philox
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--field", "Qsqrt2", "--model",
                         "awgn_real", "--snr", "10", f"--seed={seed}",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"latcode: error: --seed {seed} is outside [-2^63, 2^64), the "
            f"64-bit integers\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-2 ** 63, 2 ** 64 - 1])
    def test_ends_run(self, tmp_path, seed):
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--field", "Qsqrt2", "--model",
                         "awgn_real", "--snr", "10", "--trials", "20",
                         f"--seed={seed}", "--out", str(out)]) == 0
        assert read_csv(out)[1][0]["trials"] == "20"


@pytest.mark.pinned
class TestPinnedOutput:
    """Seeded simulate CSVs, less the ``# config:`` line, pinned by digest.

    A draw or decision that moves in any trial changes a digest.  The
    digests hold for this channel contract and decoder arithmetic; the
    bound columns are printed to 12 digits, so a platform whose libm
    rounds differently may need them re-taken.
    """

    DIGESTS = {
        ("F8-17", "awgn_real", 1):
            "27be2dfe89ed226f3422c444bad3dddc7570d690dc26e0d0a96ecb6f04b5d2c8",
        ("F8-17", "awgn_real", -1):
            "159c22cf4e1b3cc470cb8dafbb5a690f7006fc6bf851c325b82b94cb0e8bd7ec",
        ("F4-725", "rayleigh_real", 1):
            "2b20de5c0e2b8edec5df2ff4ac685bdfc883faca8ff06db1d16109df0c7cd4e2",
        ("F4-725", "rayleigh_real", -1):
            "dbeb79ea2f90ba63d187f9b4eb48b9f5f35d4f354fd3870bde4524b11f987c59",
        ("Qzeta5", "rayleigh_complex", 1):
            "0f8c3823a28075c740507b45e113e86340f472f234190235d3823a665bcd1804",
        ("Qzeta5", "rayleigh_complex", -1):
            "7588ba88d3e4bcf42d731635ba7d68e4c8ca4215e3ef8e6703a726b507862c49",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("field,model,seed", sorted(DIGESTS))
    def test_digest(self, tmp_path, field, model, seed, workers):
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--field", field, "--model", model,
                         "--rate", "1", "--snr", "6,12", "--trials", "200",
                         f"--seed={seed}", "--decoder", "both",
                         "--workers", str(workers), "--out", str(out)]) == 0
        body = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"# config:"))
        assert hashlib.sha256(body).hexdigest() == \
            self.DIGESTS[field, model, seed]


@pytest.mark.pinned
class TestPinnedBlocks:
    """Seeded Rayleigh simulate CSVs, less the ``# config:`` line, for trial
    counts that are no multiple of the simulation's block of 64 trials, and
    one trial alone; the digests were taken when every trial built its own
    faded basis."""

    DIGESTS = {
        ("F4-725", "rayleigh_real", 1):
            "9ac82c4068a5e193e5cb4d0cd4fba8d4f24684b82219baa761120998d971fe75",
        ("F4-725", "rayleigh_real", 65):
            "75df3dc3720481f09a0f2b13f9a853af59901d1a6c6493511148b1f2d2ba52a9",
        ("F4-725", "rayleigh_real", 200):
            "0f1ed9a5b956081ff95a471d14efc6796edfe09541fb67f6256695d377e1ab71",
        ("F8-17", "rayleigh_real", 1):
            "2a8880de61308423f3a276153f2e21c2ec3454b58adc37279975fe71dc30786f",
        ("F8-17", "rayleigh_real", 65):
            "6061a43816c2b98203ec82146e1d7c62c767bd03cf5ee04b86cbe3f410cdb57e",
        ("F8-17", "rayleigh_real", 200):
            "508692036c224ef5d9244548ad1e38aec5289da729724c5a6f40def2935d841d",
        ("Qzeta5", "rayleigh_complex", 1):
            "66c8b1d641eed62ac3f7ebebc18017ead9d286b78401e72fb46d241d9cf6b335",
        ("Qzeta5", "rayleigh_complex", 65):
            "691f7b3d61d0651be483039f3f1dcf33209bcc7f4a712747458ca2442b84c10c",
        ("Qzeta5", "rayleigh_complex", 200):
            "162885de507f9144ee0fedd4031dffce6fe130c7cc3b1c516a4e08f7a79d855c",
    }

    def test_block_size(self):
        assert cli._BLOCK_TRIALS == 64  # the trial counts above straddle it

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("field,model,trials", sorted(DIGESTS))
    def test_digest(self, tmp_path, field, model, trials, workers):
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--field", field, "--model", model,
                         "--rate", "1", "--snr", "8,16",
                         "--trials", str(trials), "--seed", "5",
                         "--decoder", "both", "--workers", str(workers),
                         "--out", str(out)]) == 0
        body = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"# config:"))
        assert hashlib.sha256(body).hexdigest() == \
            self.DIGESTS[field, model, trials]


class TestNonFiniteOptions:
    """A NaN or infinite --snr or --rate is named before any work is done."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--snr", "nan", "--snr values must be finite, got nan"),
        ("--snr", "inf", "--snr values must be finite, got inf"),
        ("--rate", "nan", "--rate must be finite and positive, got nan"),
        ("--rate", "inf", "--rate must be finite and positive, got inf"),
    ])
    def test_simulate_rejects(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.csv"
        args = {"--snr": "10", "--rate": "1", flag: value}
        assert cli.main(["simulate", "--field", "F4-725", "--model",
                         "awgn_real", "--trials", "10", "--out", str(out)]
                        + [f"{k}={v}" for k, v in args.items()]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--field", "F4-725", "--model", "awgn_real",
         "--trials", "10"],
        ["rates"]])
    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_rejects_power_outside_float_range(self, capsys, command, snr):
        # 10^(snr/10) overflows (an OverflowError traceback, before) or
        # underflows to zero
        assert cli.main(command + [f"--snr={snr}"]) == 1
        err = capsys.readouterr().err
        assert f"latcode: error: --snr {float(snr)} dB gives a power" in err
        assert "Traceback" not in err

    def test_rates_rejects_nan_snr(self, capsys):
        assert cli.main(["rates", "--snr", "10,nan"]) == 1
        assert "--snr values must be finite, got nan" in \
            capsys.readouterr().err


class TestExtremeSnr:
    """Runs at the ends of the SNR range decide in integers and scale their
    tolerances with the problem."""

    def simulate(self, tmp_path, field, model, snr):
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--field", field, "--model", model,
                         "--trials", "50", f"--snr={snr}",
                         "--out", str(out)]) == 0
        return read_csv(out)[1]

    def test_nld_is_exact_at_high_snr(self, tmp_path):
        # a float match within 1e-8 counted 13, 28 and 32 of these as errors
        rows = self.simulate(tmp_path, "F4-725", "awgn_real", "150,200,250")
        assert [(r["errors_nld"], r["errors_ml"]) for r in rows] == \
            [("0", "0")] * 3

    def test_low_snr_decodes(self, tmp_path):
        # an absolute tie window of 1e-12 held more lattice points than the
        # node budget here
        rows = self.simulate(tmp_path, "F4-725", "rayleigh_real", "-160")
        assert int(rows[0]["errors_nld"]) <= 50

    def test_too_fine_a_lattice_names_the_cause(self, tmp_path, capsys):
        # at -400 dB the code lattice is about 1e-20 across: the walk's
        # projected coordinates pass 2^52 and hold no integers apart
        assert cli.main(["simulate", "--field", "F4-725", "--model",
                         "rayleigh_real", "--snr=-400",
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert "floats no longer hold integers" in capsys.readouterr().err

    def test_high_snr_carves(self, tmp_path):
        # the shift search's volume ratio overflowed a float past 770 dB
        rows = self.simulate(tmp_path, "F8-17", "rayleigh_real", "780,3000")
        assert [(r["errors_nld"], r["errors_ml"]) for r in rows] == \
            [("0", "0")] * 2

    def test_high_snr_fading_bound(self, tmp_path):
        # its Chernoff slack is large, and the solve's residual is relative
        rows = self.simulate(tmp_path, "F8-17", "rayleigh_real", "250")
        assert 0.0 <= float(rows[0]["chernoff_bound"]) < 1e-100
        assert (rows[0]["errors_nld"], rows[0]["errors_ml"]) == ("0", "0")


class TestParser:
    def test_built_once_per_process(self, capsys):
        cli._parser.cache_clear()
        for _ in range(3):
            assert cli.main(["rates", "--snr", "10"]) == 0
        assert cli._parser.cache_info().misses == 1


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "field = F4-725\n"
            "model = awgn_real\n"
            "rate = 1\n"
            "snr = 12\n"
            "trials = 100   # flag will override this\n"
            "seed = 7\n")
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", str(cfgfile),
                         "--trials", "150", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert int(rows[0]["trials"]) == 150

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("fieldd = oops\n")
        assert cli.main(["invariants", "--config", str(cfgfile)]) == 1

    # one sample value per option, and a second one that overrides it
    SAMPLES = {
        "field": ("Qi", "F4-725"), "rate": ("1.5", "2"), "snr": ("6,9", "12"),
        "trials": ("10", "20"), "seed": ("3", "4"), "decoder": ("ml", "nld"),
        "model": ("awgn_real", "rayleigh_real"), "out": ("a.csv", "b.csv"),
        "catalog": ("a.cat", "b.cat"), "workers": ("2", "3"),
    }

    @staticmethod
    def config_of(argv, tmp_path, file_lines=()):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("".join(f"{line}\n" for line in file_lines))
        args = cli._build_parser().parse_args(
            ["simulate", "--config", str(cfgfile)] + argv)
        return vars(cli.build_config(args))

    def test_flag_and_file_key_set_the_same_field(self, tmp_path):
        assert set(self.SAMPLES) == set(cli._OPTIONS)
        default = self.config_of([], tmp_path)
        for key, (first, second) in self.SAMPLES.items():
            by_flag = self.config_of([f"--{key}", first], tmp_path)
            by_file = self.config_of([], tmp_path, [f"{key} = {first}"])
            assert by_flag == by_file, key
            changed = {k for k in default if by_flag[k] != default[k]}
            assert len(changed) == 1, key
            overridden = self.config_of([f"--{key}", second], tmp_path,
                                        [f"{key} = {first}"])
            assert overridden == self.config_of([f"--{key}", second],
                                                tmp_path), key
            assert overridden != by_file, key

    def test_bad_model_flag_lists_the_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--model", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "[--model {awgn_real,awgn_complex,rayleigh_real," \
            "rayleigh_complex}]" in err
        assert err.endswith(
            "latcode: error: argument --model: invalid choice: 'bogus' "
            "(choose from 'awgn_real', 'awgn_complex', 'rayleigh_real', "
            "'rayleigh_complex')\n")

    @pytest.mark.parametrize("key", ["decoder", "model"])
    def test_bad_choice_in_file_rejected(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"field = Qi\n{key} = bogus\n")
        assert cli.main(["invariants", "--config", str(cfgfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bogus" in captured.err


@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
def test_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        ["invariants", "--config", "{tmp}/missing.cfg"],
        ["invariants", "--catalog", "{tmp}/missing.cat"],
        ["bounds", "--out", "{tmp}/missing/bounds.csv"],
    ], ids=["config", "catalog", "out"])
    def test_missing_file_is_a_cli_error(self, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("latcode: error: ")
        assert "missing" in err


class TestMessagesNameTheInput:
    """A bad value on the command line or in a config file is named as the
    user typed it, with the key it came from."""

    def test_unknown_field(self, capsys):
        assert cli.main(["invariants", "--field", "Nope"]) == 1
        assert capsys.readouterr().err == \
            "latcode: error: field 'Nope' not in catalog\n"

    def test_snr_that_is_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--snr", "1,abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "latcode: error: argument --snr: '1,abc' is not a "
            "comma-separated list of numbers\n")

    @pytest.mark.parametrize("key, value", [
        ("trials", "abc"), ("snr", "1,abc"), ("rate", "fast")])
    def test_config_value_its_converter_rejects(self, tmp_path, capsys, key,
                                                value):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        assert cli.main(["simulate", "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"latcode: error: config key {key}: ")
        assert repr(value) in err
