"""Command-line entry point.

Subcommands mirror the pipeline stages: decompose -> plan -> simulate,
plus the rwa-study sweep and the one-shot reproduce runner for the named
reference scenarios.  All artifacts are deterministic: rerunning with an
identical config yields byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical-tolerance
failure, 4 precompensation out of mirror range.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import analysis
from .config import RunConfig, load_config
from .crystal import generate_hex_crystal
from .dynamics import evolve_exact, target_phases, write_evolution_csv
from .errors import StarkShaperError
from .planner import load_schedule, plan_parallel, plan_serial, save_schedule, schedule_hash, validate_schedule
from .zernike import decompose, load_expansion, save_expansion, truncation_error_map


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StarkShaperError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _crystal(cfg: RunConfig):
    return generate_hex_crystal(
        cfg.crystal_shells, cfg.crystal_spacing, cfg.crystal_orientation
    )


config_option = click.option(
    "--config", "config_path", required=True,
    type=click.Path(exists=False, dir_okay=False), help="run configuration YAML",
)
out_option = click.option(
    "--out", default="out", show_default=True, help="artifact directory",
)
tolerance_option = click.option(
    "--tolerance", default=None, type=float, help="override simulation.tolerance",
)


@click.group()
def main():
    """Compile AC Stark-shift patterns into deformable-mirror pulse
    schedules for a rotating ion crystal, and verify them exactly."""


@main.command("decompose")
@config_option
@out_option
@_guarded
def cmd_decompose(config_path, out):
    """Project the configured pattern onto the Zernike basis."""
    cfg = load_config(config_path)
    out = _out_dir(out)
    pattern = cfg.build_pattern()
    exp = decompose(pattern, cfg.n_max, cfg.m_max)
    emap = truncation_error_map(pattern, exp, crystal=_crystal(cfg))
    save_expansion(exp, out / "expansion.json")
    emap.write_csv(out / "error_map.csv")
    click.echo(f"wrote {out / 'expansion.json'} ({sum(c.size for c in exp.cos + exp.sin)} coefficients)")
    click.echo(
        f"wrote {out / 'error_map.csv'} "
        f"(disk max {emap.disk_max:.3e}, at-ion max {emap.ion_max:.3e})"
    )


@main.command("plan")
@config_option
@click.option("--expansion", "expansion_path", required=True,
              type=click.Path(dir_okay=False), help="expansion JSON from decompose")
@out_option
@_guarded
def cmd_plan(config_path, expansion_path, out):
    """Compile the expansion into a pulse schedule."""
    cfg = load_config(config_path)
    out = _out_dir(out)
    exp = load_expansion(expansion_path)
    pattern = cfg.build_pattern()
    planner = plan_serial if cfg.mode == "serial" else plan_parallel
    schedule = planner(
        exp, cfg.u_rad_s, cfg.omega_rad_s, psi=cfg.psi,
        pattern_peak=pattern.peak_value(),
    )
    report = validate_schedule(schedule)
    save_schedule(schedule, out / "schedule.json")
    payload = {
        "ok": report.ok,
        "warnings": list(report.warnings),
        "metrics": report.metrics,
        "schedule_sha256": schedule_hash(schedule),
    }
    with (out / "validation.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(
        f"wrote {out / 'schedule.json'} ({cfg.mode}, {len(schedule.segments)} "
        f"segment(s), total {schedule.total_duration_s * 1e6:.4g} us)"
    )
    for warning in report.warnings:
        click.echo(f"warning: {warning}")


@main.command("simulate")
@config_option
@click.option("--schedule", "schedule_path", required=True,
              type=click.Path(dir_okay=False), help="schedule JSON from plan")
@out_option
@tolerance_option
@_guarded
def cmd_simulate(config_path, schedule_path, out, tolerance):
    """Integrate the spin phase of every ion under a compiled schedule."""
    cfg = load_config(config_path)
    out = _out_dir(out)
    schedule = load_schedule(schedule_path)
    crystal = _crystal(cfg)
    pattern = cfg.build_pattern()
    tol = cfg.tolerance if tolerance is None else tolerance

    result = evolve_exact(crystal, schedule, tol=tol)
    result = result.with_targets(target_phases(
        crystal, pattern, schedule.target_u_rad_s, schedule.gate_time_s
    ))
    write_evolution_csv(result, crystal, out / "evolution.csv")
    edges, counts = analysis.infidelity_histogram(result.infidelity)
    analysis.write_histogram_csv(edges, counts, out / "histogram.csv")
    payload = {
        "max_infidelity": result.max_infidelity,
        "mean_infidelity": float(np.mean(result.infidelity)),
        "ion_count": len(crystal),
        "gate_time_s": schedule.gate_time_s,
        "total_duration_s": schedule.total_duration_s,
        "wall_time_s": schedule.wall_time_s,
        "tolerance": tol,
        "schedule_sha256": schedule_hash(schedule),
    }
    with (out / "report.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(
        f"wrote {out / 'evolution.csv'} "
        f"(max infidelity {result.max_infidelity:.4e} over {len(crystal)} ions)"
    )


@main.command("rwa-study")
@config_option
@out_option
@_guarded
def cmd_rwa_study(config_path, out):
    """Exact vs rotating-wave evolution for a rim ion across rotation rates."""
    cfg = load_config(config_path)
    if cfg.rwa is None:
        raise click.UsageError("config has no rwa_study section")
    out = _out_dir(out)
    study = analysis.rwa_study(
        cfg.rwa["omega_list"], u_rad_s=cfg.u_rad_s,
        amplitude=cfg.rwa["amplitude"], m=cfg.rwa["m"],
        sample_count=cfg.rwa["sample_count"], t_max_s=cfg.rwa["t_max_s"],
        psi=cfg.psi,
    )
    summary = []
    for series in study.series:
        hz = series.omega_rad_s / (2.0 * np.pi)
        tag = f"{int(round(hz))}hz"
        analysis.write_rwa_series_csv(series, out / f"rwa_series_{tag}.csv")
        analysis.write_histogram_csv(
            series.histogram_edges, series.histogram_counts,
            out / f"rwa_hist_{tag}.csv",
        )
        summary.append({
            "omega_rad_s": series.omega_rad_s,
            "max_infidelity": series.max_infidelity,
            "max_commensurate_infidelity": series.max_commensurate_infidelity,
            "commensurate_count": int(series.commensurate_times_s.size),
        })
        click.echo(
            f"omega = 2pi x {hz:.6g} Hz: max infidelity {series.max_infidelity:.4e}, "
            f"commensurate max {series.max_commensurate_infidelity:.3e}"
        )
    payload = {
        "u_rad_s": study.u_rad_s, "amplitude": study.amplitude,
        "order": study.order, "psi": study.psi, "t_max_s": study.t_max_s,
        "series": summary,
    }
    with (out / "rwa_summary.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@main.command("reproduce")
@click.argument("figure_id")
@out_option
@tolerance_option
@_guarded
def cmd_reproduce(figure_id, out, tolerance):
    """Run the reference scenario(s) behind one figure id (fig3..fig12),
    or every registry scenario once with "all"."""
    out = _out_dir(out)
    reports = analysis.reproduce_figure(
        figure_id, out, tol=1e-12 if tolerance is None else tolerance,
    )
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        click.echo(
            f"{rep.name}/{rep.mode}/tier {rep.tier:g}: max infidelity "
            f"{rep.max_infidelity:.4e} (threshold {rep.threshold:g}) [{status}]"
        )
    if not all(rep.passed for rep in reports):
        sys.exit(3)


if __name__ == "__main__":
    main()
