"""Batch front-end: invariant tables, rate/gap tables, bound tables,
Monte Carlo campaigns, and ideal analysis, all emitted as CSV.

Every output file starts with comment lines recording the version, the full
configuration, and the master seed, so runs are reproducible from their
outputs alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, analysis, lattice, numberfield
from .channel import MODELS, STREAM_MESSAGE, Model, stream_rng, transmit
from .codebook import CodeConfig, Codebook, carve
from .decoder import ml_decode, ml_near_rows, nld_decode
from .numberfield import FieldSpec, embedding_matrix, load_catalog

# --decoder value -> (run NLD, run ML)
DECODERS = {"nld": (True, False), "ml": (False, True), "both": (True, True)}
# Trials per block of _simulate_chunk.  Building the faded bases of the
# rate-1 F4-725, F8-17 and Qzeta5 codes (LatticeBasis.faded, in-process,
# best of 7, 2 CPUs) cost 38-79 us a trial one at a time, 6-9 us in blocks
# of 64 and 5-10 us in blocks of 128 or 256: past 64 a block saves under
# 3 us of a fading_nld trial's ~30 us.  ML scores the same block at once
# (decoder.ml_near_rows): 2.2 us a trial on the 268-row F8-17 code against
# 13 us alone; a larger code is scored a few trials per product within
# decoder._ML_SCORE_BYTES.
_BLOCK_TRIALS = 64


@dataclass
class ExperimentConfig:
    subcommand: str
    field_name: str | None = None
    rate: float = 1.0
    snr_db_grid: tuple[float, ...] = ()
    trials: int = 1000
    master_seed: int = 1
    decoder: str = "both"
    model: str | None = None
    output_path: str | None = None
    catalog_path: str | None = None
    workers: int = 1

    def validate(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not -(1 << 63) <= self.master_seed < 1 << 64:
            raise ValueError(f"--seed {self.master_seed} is outside "
                             f"[-2^63, 2^64), the 64-bit integers")
        for snr_db in self.snr_db_grid:
            if not math.isfinite(snr_db):
                raise ValueError(f"--snr values must be finite, got {snr_db}")
            try:
                power = 10.0 ** (snr_db / 10.0)
            except OverflowError:
                power = math.inf
            if not sys.float_info.min <= power <= sys.float_info.max:
                raise ValueError(f"--snr {snr_db} dB gives a power "
                                 f"10^(snr/10) that overflows or underflows "
                                 f"a float")
        if self.subcommand == "simulate":
            if not self.field_name:
                raise ValueError("simulate requires --field")
            if not (math.isfinite(self.rate) and self.rate > 0):
                raise ValueError(f"--rate must be finite and positive, got "
                                 f"{self.rate}")
            if not self.snr_db_grid:
                raise ValueError("simulate requires a nonempty SNR grid")
            if self.model not in MODELS:
                raise ValueError(f"simulate requires a channel model, got "
                                 f"{self.model!r}")
            if self.decoder not in DECODERS:
                raise ValueError(f"unknown decoder {self.decoder!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_rows(cfg: ExperimentConfig, header, rows) -> str:
    buf = io.StringIO()
    cfg_txt = " ".join(f"{k}={v}" for k, v in sorted(vars(cfg).items())
                       if v is not None)
    buf.write(f"# latcode {__version__}\n")
    buf.write(f"# config: {cfg_txt}\n")
    buf.write(f"# seed: {cfg.master_seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if cfg.output_path:
        with open(cfg.output_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _select_fields(cfg: ExperimentConfig) -> list[FieldSpec]:
    if cfg.field_name:
        return [numberfield.catalog_field(cfg.field_name, cfg.catalog_path)]
    return load_catalog(cfg.catalog_path)


def run_invariants(cfg: ExperimentConfig):
    rows = []
    for f in _select_fields(cfg):
        inv = lattice.invariants(embedding_matrix(f))
        nsv_pred, ndp_pred = numberfield.predicted_invariants(f)
        rows.append([
            f.name, inv.ambient, f.degree, inv.volume, inv.sv, inv.dp_min,
            inv.nsv, inv.ndp, nsv_pred, ndp_pred,
            abs(inv.nsv - nsv_pred) / nsv_pred,
            abs(inv.ndp - ndp_pred) / ndp_pred,
            numberfield.reaches_norm_floor(inv.dp_min),
        ])
    header = ["field", "ambient", "degree", "vol", "sv", "dp_min", "nsv",
              "ndp", "nsv_pred", "ndp_pred", "nsv_mismatch", "ndp_mismatch",
              "dp_exact"]
    return header, rows


def run_rates(cfg: ExperimentConfig):
    grid = cfg.snr_db_grid or (0.0, 10.0, 20.0, 30.0, 40.0)
    rows = []
    for snr_db in grid:
        power = 10.0 ** (snr_db / 10.0)
        for model in MODELS:
            const = (analysis.MARTINET_G_COMPLEX if model.complex
                     else analysis.MARTINET_G1_REAL)
            rb = analysis.achievable_rate(model, power, const)
            rows.append([rb.label, model, snr_db, rb.rate,
                         rb.parameters["gap_bits"],
                         f"constant={_fmt(const)}"])
    header = ["label", "channel", "P_db", "rate_bits", "gap_bits", "params"]
    return header, rows


def run_bounds(cfg: ExperimentConfig):
    rows = []
    for rb in analysis.bound_table():
        params = ";".join(f"{k}={v}" for k, v in rb.parameters.items())
        rows.append([rb.label, rb.channel or "", "", rb.rate, "", params])
    header = ["label", "channel", "P_db", "rate_bits", "gap_bits", "params"]
    return header, rows


def run_ideal(cfg: ExperimentConfig):
    rows = []
    for f in _select_fields(cfg):
        ideals = list(f.ideals)
        if not any(i.norm == 1 for i in ideals):
            ideals.insert(0, f.unit_ideal())
        # N_min(K): every class contains an ideal of norm <= N_min; with one
        # (minimal) representative per class this is the max over classes
        per_class: dict[str, int] = {}
        for i in ideals:
            per_class[i.class_label] = min(
                per_class.get(i.class_label, i.norm), i.norm)
        n_min = max(per_class.values())
        _, prefactor = numberfield.predicted_invariants(f)
        pred_best = prefactor * numberfield.embedded_norm(f, n_min)
        for i in ideals:
            mi = numberfield.min_ideal(f, i)
            rows.append([f.name, i.label, i.norm, i.class_label, i.principal,
                         mi, prefactor * mi, pred_best, n_min])
    header = ["field", "ideal", "norm", "class", "principal", "min_I",
              "ndp_ideal", "ndp_idealform_pred", "n_min"]
    return header, rows


def _simulate_chunk(codebook: Codebook, model: Model, master_seed: int,
                    lo: int, hi: int, which: str):
    """Error counts for trials [lo, hi); pure counting, order-independent.

    Trials go in blocks of ``_BLOCK_TRIALS``: every trial of a block is
    drawn and sent, then, for NLD on a fading channel, the block's faded
    bases are built at once (``LatticeBasis.faded`` on the stack of
    fadings), and for ML the block is scored at once (``ml_near_rows``),
    then each trial is decoded.  The draws and decisions are those of one
    trial at a time.
    """
    run_nld, run_ml = DECODERS[which]
    err_nld = err_ml = nld_right_ml_wrong = 0
    for start in range(lo, hi, _BLOCK_TRIALS):
        block = []
        for t in range(start, min(start + _BLOCK_TRIALS, hi)):
            mrng = stream_rng(master_seed, t, STREAM_MESSAGE)
            m = int(mrng.integers(codebook.size))
            block.append((m, *transmit(codebook.points[m], model,
                                       master_seed, t)))
        fadings = (np.array([r.fading for _, _, r in block]) if model.fading
                   else None)
        faded = near = [None] * len(block)
        if run_nld and model.fading:
            try:
                faded = codebook.basis.faded(fadings)
            except lattice.SingularBasisError as exc:
                raise ValueError(f"trial {start + exc.index}: the faded "
                                 f"code lattice is singular") from exc
        if run_ml:
            near = ml_near_rows(np.array([y for _, y, _ in block]), fadings,
                                codebook)
        for (m, y, realization), basis, rows in zip(block, faded, near):
            if run_nld:
                nld_ok = nld_decode(y, realization, codebook, m,
                                    faded=basis).correct
                err_nld += not nld_ok
            if run_ml:
                ml_ok = ml_decode(y, realization, codebook, m,
                                  near=rows).correct
                err_ml += not ml_ok
            nld_right_ml_wrong += run_nld and run_ml and nld_ok and not ml_ok
    return err_nld, err_ml, nld_right_ml_wrong


def simulate_point(field: FieldSpec, model: str, rate: float, power: float,
                   trials: int, master_seed: int, which: str = "both",
                   workers: int = 1):
    """One Monte Carlo point: carve the code, run trials, return counts.

    The trials are split into ``workers`` chunks; a pool runs them on at
    most ``os.cpu_count()`` processes, so the counts do not depend on how
    many run at once."""
    model = Model(model)
    cb = carve(CodeConfig(rate=rate, power=power, field=field,
                          seed=master_seed))
    if workers <= 1 or trials < 2 * workers:
        counts = [_simulate_chunk(cb, model, master_seed, 0, trials, which)]
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        with ProcessPoolExecutor(
                max_workers=min(workers, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_simulate_chunk, cb, model, master_seed,
                                   int(lo), int(hi), which)
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            counts = [f.result() for f in futures]
    err_nld, err_ml, dominance_violations = map(sum, zip(*counts))
    return cb, err_nld, err_ml, dominance_violations


def run_simulate(cfg: ExperimentConfig):
    field = _select_fields(cfg)[0]
    model = Model(cfg.model)
    if field.totally_real == model.complex:
        raise ValueError(
            f"field {field.name} ({'real' if field.totally_real else 'complex'}) "
            f"is incompatible with model {model}")
    run_nld, run_ml = DECODERS[cfg.decoder]
    rows = []
    for snr_db in cfg.snr_db_grid:
        power = 10.0 ** (snr_db / 10.0)
        cb, err_nld, err_ml, _ = simulate_point(
            field, model, cfg.rate, power, cfg.trials, cfg.master_seed,
            which=cfg.decoder, workers=cfg.workers)
        sv = lattice.shortest_vector(cb.basis)
        sbound = analysis.sphere_bound(sv, cb.n, model)
        if model.fading:
            cbound = analysis.fading_error_bound(cb.n, cb.alpha, model=model)
        else:
            cbound = ""
        pe_nld = err_nld / cfg.trials
        pe_ml = err_ml / cfg.trials
        pe_ref = pe_nld if run_nld else pe_ml
        mc_sigma = math.sqrt(max(pe_ref * (1.0 - pe_ref), 1e-12) / cfg.trials)
        rows.append([
            snr_db, cfg.trials,
            err_nld if run_nld else "", err_ml if run_ml else "",
            pe_nld if run_nld else "", pe_ml if run_ml else "",
            mc_sigma, sbound, cbound,
        ])
    header = ["snr_db", "trials", "errors_nld", "errors_ml", "pe_nld",
              "pe_ml", "mc_sigma", "sphere_bound", "chernoff_bound"]
    return header, rows


_RUNNERS = {
    "invariants": run_invariants,
    "rates": run_rates,
    "bounds": run_bounds,
    "simulate": run_simulate,
    "ideal": run_ideal,
}
SUBCOMMANDS = tuple(_RUNNERS)


def _parse_snr(text: str) -> tuple[float, ...]:
    """Comma-separated dB values; a bad one is named with the whole list."""
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers") from None


# --key flag and --config key -> (ExperimentConfig field, converter, choices)
_OPTIONS = {
    "field": ("field_name", str, None),
    "rate": ("rate", float, None),
    "snr": ("snr_db_grid", _parse_snr, None),
    "trials": ("trials", int, None),
    "seed": ("master_seed", int, None),
    "decoder": ("decoder", str, DECODERS),
    # plain names: argparse lists the choices by repr
    "model": ("model", str, tuple(map(str, MODELS))),
    "out": ("output_path", str, None),
    "catalog": ("catalog_path", str, None),
    "workers": ("workers", int, None),
}


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _OPTIONS:
                raise ValueError(
                    f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcode",
        description="Number-field lattice code laboratory")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="key=value file of the options "
                        "below, named without --; flags override it")
    for key, (attr, conv, choices) in _OPTIONS.items():
        parser.add_argument(f"--{key}", dest=attr, type=conv, choices=choices)
    return parser


_parser = functools.cache(_build_parser)  # one parser per process


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(subcommand=args.subcommand)
    in_file = _load_config_file(args.config) if args.config else {}
    for key, (attr, conv, choices) in _OPTIONS.items():
        if key in in_file:
            try:
                value = conv(in_file[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key}: {exc}") from None
            if choices is not None and value not in choices:
                raise ValueError(f"config key {key}: invalid choice {value!r} "
                                 f"(choose from {', '.join(choices)})")
            setattr(cfg, attr, value)
        if getattr(args, attr) is not None:
            setattr(cfg, attr, getattr(args, attr))
    return cfg


def run(cfg: ExperimentConfig) -> int:
    cfg.validate()
    header, rows = _RUNNERS[cfg.subcommand](cfg)
    _write_rows(cfg, header, rows)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run(build_config(args))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"latcode: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
