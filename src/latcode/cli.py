"""Batch front-end: invariant tables, rate/gap tables, bound tables,
Monte Carlo campaigns, and ideal analysis, all emitted as CSV.

Every output file starts with comment lines recording the version, the full
configuration, and the master seed, so runs are reproducible from their
outputs alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, analysis, channel, lattice, numberfield
from .channel import MODELS, STREAM_MESSAGE, stream_rng, transmit
from .codebook import CodeConfig, Codebook, carve
from .decoder import ml_decode, nld_decode
from .numberfield import FieldSpec, embedding_matrix, load_catalog

SUBCOMMANDS = ("invariants", "rates", "bounds", "simulate", "ideal")


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
        if self.subcommand == "simulate":
            if not self.snr_db_grid:
                raise ValueError("simulate requires a nonempty SNR grid")
            if self.model not in MODELS:
                raise ValueError(f"simulate requires a channel model, got "
                                 f"{self.model!r}")
            if self.decoder not in ("nld", "ml", "both"):
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
    fields = load_catalog(cfg.catalog_path)
    if cfg.field_name:
        chosen = [f for f in fields if f.name == cfg.field_name]
        if not chosen:
            raise KeyError(f"field {cfg.field_name!r} not in catalog")
        return chosen
    return fields


def run_invariants(cfg: ExperimentConfig):
    rows = []
    for f in _select_fields(cfg):
        inv = lattice.invariants(embedding_matrix(f), exact_hint=1.0)
        d = abs(f.disc_catalog)
        if f.totally_real:
            n = f.degree
            nsv_pred = math.sqrt(n) / d ** (1.0 / (2 * n))
            ndp_pred = 1.0 / math.sqrt(d)
        else:
            n = f.degree // 2
            nsv_pred = math.sqrt(2 * n) / d ** (1.0 / (4 * n))
            ndp_pred = 2.0 ** (n / 2.0) / d ** 0.25
        rows.append([
            f.name, inv.ambient, f.degree, inv.volume, inv.sv, inv.dp_min,
            inv.nsv, inv.ndp, nsv_pred, ndp_pred,
            abs(inv.nsv - nsv_pred) / nsv_pred,
            abs(inv.ndp - ndp_pred) / ndp_pred,
            inv.dp_exact,
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
            const = (analysis.MARTINET_G_COMPLEX if channel.is_complex(model)
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
        if not ideals:
            continue
        # N_min(K): every class contains an ideal of norm <= N_min; with one
        # (minimal) representative per class this is the max over classes
        per_class: dict[str, int] = {}
        for i in ideals:
            per_class[i.class_label] = min(
                per_class.get(i.class_label, i.norm), i.norm)
        n_min = max(per_class.values())
        d = abs(f.disc_catalog)
        if f.totally_real:
            prefactor = 1.0 / math.sqrt(d)
            pred_best = prefactor * n_min
        else:
            prefactor = 2.0 ** (f.degree // 2 / 2.0) / d ** 0.25
            pred_best = prefactor * math.sqrt(n_min)
        for i in ideals:
            mi = numberfield.min_ideal(f, i)
            rows.append([f.name, i.label, i.norm, i.class_label, i.principal,
                         mi, prefactor * mi, pred_best, n_min])
    header = ["field", "ideal", "norm", "class", "principal", "min_I",
              "ndp_ideal", "ndp_idealform_pred", "n_min"]
    return header, rows


def _simulate_chunk(codebook: Codebook, model: str, master_seed: int,
                    lo: int, hi: int, which: str):
    """Error counts for trials [lo, hi); pure counting, order-independent."""
    err_nld = 0
    err_ml = 0
    nld_wrong_ml_right = 0
    for t in range(lo, hi):
        mrng = stream_rng(master_seed, t, STREAM_MESSAGE)
        s = codebook.points[int(mrng.integers(codebook.size))]
        y, realization = transmit(s, model, master_seed, t)
        nld_ok = ml_ok = None
        if which in ("nld", "both"):
            nld_ok = nld_decode(y, realization, codebook, s).correct
            if not nld_ok:
                err_nld += 1
        if which in ("ml", "both"):
            ml_ok = ml_decode(y, realization, codebook, s).correct
            if not ml_ok:
                err_ml += 1
        if which == "both" and nld_ok and not ml_ok:
            nld_wrong_ml_right += 1
    return err_nld, err_ml, nld_wrong_ml_right


def simulate_point(field: FieldSpec, model: str, rate: float, power: float,
                   trials: int, master_seed: int, which: str = "both",
                   workers: int = 1):
    """One Monte Carlo point: carve the code, run trials, return counts."""
    cb = carve(CodeConfig(rate=rate, power=power, field=field,
                          seed=master_seed))
    if workers <= 1 or trials < 2 * workers:
        counts = [_simulate_chunk(cb, model, master_seed, 0, trials, which)]
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_chunk, cb, model, master_seed,
                                   int(lo), int(hi), which)
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            counts = [f.result() for f in futures]
    err_nld = sum(c[0] for c in counts)
    err_ml = sum(c[1] for c in counts)
    dominance_violations = sum(c[2] for c in counts)
    return cb, err_nld, err_ml, dominance_violations


def run_simulate(cfg: ExperimentConfig):
    field = _select_fields(cfg)[0]
    if field.totally_real == channel.is_complex(cfg.model):
        raise ValueError(
            f"field {field.name} ({'real' if field.totally_real else 'complex'}) "
            f"is incompatible with model {cfg.model}")
    rows = []
    for snr_db in cfg.snr_db_grid:
        power = 10.0 ** (snr_db / 10.0)
        cb, err_nld, err_ml, _ = simulate_point(
            field, cfg.model, cfg.rate, power, cfg.trials, cfg.master_seed,
            which=cfg.decoder, workers=cfg.workers)
        _, sv = lattice.shortest_vector(cb.basis)
        sbound = analysis.sphere_bound(sv, cb.n, cfg.model)
        if channel.is_fading(cfg.model):
            cbound = analysis.fading_error_bound(cb.n, cb.alpha,
                                                 model=cfg.model)
        else:
            cbound = ""
        pe_nld = err_nld / cfg.trials if cfg.decoder in ("nld", "both") else ""
        pe_ml = err_ml / cfg.trials if cfg.decoder in ("ml", "both") else ""
        pe_ref = pe_nld if pe_nld != "" else pe_ml
        mc_sigma = math.sqrt(max(pe_ref * (1.0 - pe_ref), 1e-12) / cfg.trials)
        rows.append([
            snr_db, cfg.trials,
            err_nld if cfg.decoder in ("nld", "both") else "",
            err_ml if cfg.decoder in ("ml", "both") else "",
            pe_nld, pe_ml, mc_sigma, sbound, cbound,
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
            out[key.strip()] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcode",
        description="Number-field lattice code laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--field", dest="field_name")
        p.add_argument("--rate", type=float)
        p.add_argument("--snr", help="comma-separated SNR grid in dB")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", dest="master_seed", type=int)
        p.add_argument("--decoder", choices=("nld", "ml", "both"))
        p.add_argument("--model", choices=MODELS)
        p.add_argument("--out", dest="output_path")
        p.add_argument("--catalog", dest="catalog_path")
        p.add_argument("--workers", type=int)
    return parser


_CONFIG_KEYS = {
    "field": ("field_name", str),
    "rate": ("rate", float),
    "snr": ("snr_db_grid", None),
    "trials": ("trials", int),
    "seed": ("master_seed", int),
    "decoder": ("decoder", str),
    "model": ("model", str),
    "out": ("output_path", str),
    "catalog": ("catalog_path", str),
    "workers": ("workers", int),
}


def _parse_snr(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(subcommand=args.subcommand)
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            attr, conv = _CONFIG_KEYS[key]
            setattr(cfg, attr, _parse_snr(value) if attr == "snr_db_grid"
                    else conv(value))
    for key, (attr, _) in _CONFIG_KEYS.items():
        flag_attr = "snr" if attr == "snr_db_grid" else attr
        value = getattr(args, flag_attr, None)
        if value is not None:
            setattr(cfg, attr, _parse_snr(value) if attr == "snr_db_grid"
                    else value)
    cfg.validate()
    return cfg


def run(cfg: ExperimentConfig) -> int:
    cfg.validate()
    header, rows = _RUNNERS[cfg.subcommand](cfg)
    _write_rows(cfg, header, rows)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(build_config(args))
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"latcode: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
