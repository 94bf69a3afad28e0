"""Command-line harness: single runs, failure-probability sweeps, multi-solver
performance profiles, the theory-constants calculator, and logistic training.

Every subcommand emits CSV (stdout or --out). A flat key=value config file
can preload any flag of the chosen subcommand; explicit flags win. The
STORM_SEED environment variable overrides the default --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .engine import StoppingRule, TrustRegionConfig
from .logistic import LogisticProblem, load_libsvm, make_synthetic, train_test_split
from .oracles import NoiseSpec, per_s_to_sigma
from .problems import builtin_suite, get_problem
from .profiles import (ProfileTable, build_profiles, check_tau, profile_fraction,
                       solve_threshold)
from .theory import (check_probabilities, compute_theory_constants,
                     failure_alpha_beta, min_success_probability)
from .variants import (REGISTRY, check_adagrad_settings, run_adagrad, run_storm_failure,
                       run_storm_logistic)


def _default_seed() -> int:
    return int(os.environ.get("STORM_SEED", "0"))


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config_defaults(parser: argparse.ArgumentParser, config: dict) -> None:
    for action in parser._actions:  # noqa: SLF001 - argparse offers no public hook
        if action.dest in config:
            raw = config[action.dest]
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                value = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                value = action.type(raw)
            else:
                value = raw
            parser.set_defaults(**{action.dest: value})


def _noise_from_args(args, m: int) -> NoiseSpec:
    kind = args.noise
    sigma = args.sigma
    if kind == "failure":
        if args.ps is not None:
            sigma = per_s_to_sigma(args.ps, m)
        return NoiseSpec(kind="failure", sigma=sigma, epsilon=args.epsilon,
                         garbage_value=args.garbage, failure_mode=args.failure_mode)
    if kind == "none":
        return NoiseSpec(kind="none")
    return NoiseSpec(kind=kind, sigma=sigma)


def _tr_config(args, budget: int, seed_offset: int = 0) -> TrustRegionConfig:
    return TrustRegionConfig(delta0=args.delta0, delta_max=args.delta_max,
                             gamma=args.gamma, eta1=args.eta1, eta2=args.eta2,
                             budget=budget, seed=args.seed + seed_offset)


def _add_common_tr_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta0", type=float, default=1.0)
    p.add_argument("--delta-max", type=float, default=10.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--eta1", type=float, default=0.1)
    p.add_argument("--eta2", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--config", help="flat key=value file preloading these flags")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--emit-plot-data", action="store_true",
                   help="append plot-ready numeric columns")


def _add_noise_flags(p: argparse.ArgumentParser, default_noise: str) -> None:
    p.add_argument("--noise", choices=["none", "multiplicative", "additive", "failure"],
                   default=default_noise)
    p.add_argument("--sigma", type=float, default=1e-3)
    p.add_argument("--ps", type=float, default=None,
                   help="failure noise: problem-level success probability")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--garbage", type=float, default=-10000.0)
    p.add_argument("--failure-mode", choices=["component", "objective"],
                   default="component")


def cmd_run(args) -> int:
    if args.ftol is None:
        check_tau(args.tau)
    spec = get_problem(args.problem)
    noise = _noise_from_args(args, spec.m)
    problem = spec.instantiate(noise)
    budget = args.budget if args.budget else spec.budget_multiplier * (spec.n + 1)
    if args.budget_mult:
        budget = args.budget_mult * (spec.n + 1)
    cfg = _tr_config(args, budget)
    record = REGISTRY[args.variant](problem, cfg)

    f_x0 = problem.true_f(problem.x0)
    if args.ftol is not None:
        threshold = args.ftol
    else:
        threshold = solve_threshold(f_x0, spec.f_star, args.tau)
    evals = record.evals_to_reach(threshold, budget)
    print(f"variant={record.variant}")
    print(f"problem={record.problem}")
    print(f"seed={cfg.seed}")
    print(f"solved={'true' if evals is not None else 'false'}")
    print(f"evals_to_solve={'' if evals is None else evals}")
    print(f"eval_total={record.eval_total}")
    print(f"f_final={record.f_final_true!r}")
    print(f"stop_reason={record.stop_reason}")

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = ["k", "delta", "rho", "success", "flag", "model_grad_norm",
              "f0_estimate", "fs_estimate", "evals_iter", "true_f", "phi"]
    if args.emit_plot_data:
        header += ["log10_delta", "log10_true_f"]
    w.writerow(header)
    for ev in record.events:
        rec = [ev.k, repr(ev.delta_before), "" if ev.rho is None else repr(ev.rho),
               int(ev.success), ev.flag or "", repr(ev.model_gradient_norm),
               repr(ev.f0_estimate), repr(ev.fs_estimate), ev.evals_used_this_iter,
               "" if ev.true_f_after is None else repr(ev.true_f_after),
               "" if ev.phi is None else repr(ev.phi)]
        if args.emit_plot_data:
            rec += [repr(float(np.log10(ev.delta_before))),
                    "" if ev.true_f_after in (None, 0.0)
                    else repr(float(np.log10(ev.true_f_after)))]
        w.writerow(rec)
    _write_output(buf.getvalue(), args.out)
    return 0


def _check_count(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def cmd_sweep(args) -> int:
    _check_count("--seeds", args.seeds)
    if not np.isfinite(args.ftol):
        raise ValueError(f"--ftol must be finite, got {args.ftol!r}")
    spec = get_problem(args.problem)
    grid = [float(v) for v in args.ps_grid.split(",")]
    budget = args.budget
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = ["ps", "solved_fraction", "seeds", "mean_evals_solved"]
    if args.emit_plot_data:
        header.append("stderr")
    w.writerow(header)
    for ps in grid:
        solved = 0
        evals_list = []
        for seed in range(args.seeds):
            noise = NoiseSpec(kind="failure", sigma=per_s_to_sigma(ps, spec.m),
                              epsilon=args.epsilon, garbage_value=args.garbage)
            problem = spec.instantiate(noise)
            stop = StoppingRule(budget=budget, target_f=args.ftol)
            record = run_storm_failure(problem, _tr_config(args, budget, seed), stop=stop)
            evals = record.evals_to_reach(args.ftol, budget)
            if evals is not None:
                solved += 1
                evals_list.append(evals)
        frac = solved / args.seeds
        rec = [repr(ps), repr(frac), args.seeds,
               repr(float(np.mean(evals_list))) if evals_list else ""]
        if args.emit_plot_data:
            rec.append(repr(float(np.sqrt(frac * (1 - frac) / args.seeds))))
        w.writerow(rec)
    _write_output(buf.getvalue(), args.out)
    return 0


def _fstar_from_reference_run(spec, budget: int, seed: int) -> float:
    """Best noiseless value any solver finds on a zero-noise reference run.

    The runs keep the default budget-only stop: the best value over the whole
    run is wanted, not the first one below some target.
    """
    best = spec.instantiate().true_f(spec.x0)
    for runner in REGISTRY.values():
        problem = spec.instantiate()
        record = runner(problem, TrustRegionConfig(budget=budget, seed=seed))
        vals = [ev.true_f_after for ev in record.events if ev.true_f_after is not None]
        if vals:
            best = min(best, min(vals))
    return best


def run_profile_cells(solvers: List[str], specs, noise_kind: str, sigma: float,
                      tau: float, budget_mult: int, seeds: int,
                      seed0: int = 0, fstar_from_run: bool = False) -> ProfileTable:
    """Fan the (solver, problem, seed) grid out into a profile table."""
    table = ProfileTable()
    for spec in specs:
        budget = budget_mult * (spec.n + 1)
        f_x0 = spec.instantiate().true_f(spec.x0)
        f_star = (_fstar_from_reference_run(spec, budget, seed0)
                  if fstar_from_run else spec.f_star)
        if f_x0 <= f_star:  # nothing improved on x0: every cell is unsolved
            for solver in solvers:
                for seed in range(seeds):
                    table.add(solver, spec.name, seed0 + seed, None, tau, budget)
            continue
        threshold = solve_threshold(f_x0, f_star, tau)
        for solver in solvers:
            for seed in range(seeds):
                noise = NoiseSpec(kind=noise_kind, sigma=sigma)
                problem = spec.instantiate(noise)
                cfg = TrustRegionConfig(budget=budget, seed=seed0 + seed)
                stop = StoppingRule(budget=budget, target_f=threshold)
                record = REGISTRY[solver](problem, cfg, stop)
                table.add(solver, spec.name, seed0 + seed,
                          record.evals_to_reach(threshold, budget), tau, budget)
    return table


def cmd_profile(args) -> int:
    _check_count("--seeds", args.seeds)
    check_tau(args.tau)
    solvers = [s.strip() for s in args.solvers.split(",")]
    for s in solvers:
        if s not in REGISTRY:
            raise KeyError(f"unknown solver {s!r}")
    if args.problems == "all":
        specs = builtin_suite()
    else:
        specs = [get_problem(name.strip()) for name in args.problems.split(",")]
    table = run_profile_cells(solvers, specs, args.noise, args.sigma, args.tau,
                              args.budget_mult, args.seeds, seed0=args.seed,
                              fstar_from_run=args.fstar_from_run)
    if args.raw_out:
        with open(args.raw_out, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
    scores = table.scores()
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["solver", "problem", "score", "fraction_at_r2"])
    for solver in table.solvers():
        frac2 = profile_fraction(table, solver, 2.0)
        for prob in table.problems():
            score = scores.get((solver, prob), float("inf"))
            w.writerow([solver, prob, repr(score), repr(frac2)])
    _write_output(buf.getvalue(), args.out)
    if args.curves_out:
        curves = build_profiles(table)
        with open(args.curves_out, "w", encoding="utf-8") as fh:
            fh.write(curves.to_csv(plot_columns=args.emit_plot_data))
    return 0


def _fmt_frac(name: str, value) -> str:
    if isinstance(value, Fraction):
        approx = f" ({float(value):.6f})" if value.denominator != 1 else ""
        return f"{name}={value}{approx}"
    return f"{name}={value}"


def cmd_theory(args) -> int:
    kef = args.kef if args.kef is not None else args.kappa * args.L
    keg = args.keg if args.keg is not None else args.kappa * args.L
    kbhm = args.kbhm if args.kbhm is not None else args.kappa * args.L
    tc = compute_theory_constants(args.L, kef, keg, kbhm, args.kfcd,
                                  args.eta1, args.gamma)
    lines = [
        _fmt_frac("eta2_min", tc.eta2_min),
        _fmt_frac("eta2_strict", tc.eta2_strict),
        _fmt_frac("epsF_max", tc.epsF_max),
        _fmt_frac("zeta", tc.zeta),
        _fmt_frac("C1", tc.C1),
        _fmt_frac("C3", tc.C3),
        _fmt_frac("nu_min", tc.nu_min),
        _fmt_frac("bound_A", tc.bound_A),
        _fmt_frac("threshold_A", tc.threshold_A),
        _fmt_frac("bound_B", tc.bound_B),
        _fmt_frac("threshold_B", tc.threshold_B),
    ]
    if args.alpha is not None and args.beta is not None:
        checks = check_probabilities(tc, args.alpha, args.beta)
        lines.append(f"ratio_condition={'true' if checks['ratio_condition'] else 'false'}")
        lines.append(f"product_condition={'true' if checks['product_condition'] else 'false'}")
        lines.append(f"half_condition={'true' if checks['half_condition'] else 'false'}")
    if args.n is not None:
        pmin = min_success_probability(args.n)
        lines.append(f"min_success_probability_n{args.n}={pmin:.6f}")
        if args.success_prob is not None:
            a, b = failure_alpha_beta(1.0 - args.success_prob, args.n)
            lines.append(f"alpha={a:.6f}")
            lines.append(f"beta={b:.6f}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_train(args) -> int:
    if args.baseline == "adagrad":
        check_adagrad_settings(args.step0, args.batch)
    if args.data == "synthetic":
        ds = make_synthetic(args.n_samples, args.n_features, seed=args.data_seed,
                            margin_noise=args.margin_noise)
    else:
        ds = load_libsvm(args.data)
    train, test = train_test_split(ds, test_fraction=0.05, seed=args.split_seed)
    budget = args.budget if args.budget else train.n_samples
    problem = LogisticProblem(train, lam=args.lam)
    test_problem = LogisticProblem(test, lam=args.lam)
    cfg = _tr_config(args, budget)
    record = run_storm_logistic(problem, cfg, hessian=(args.hessian == "on"))

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["solver", "evals", "train_loss", "test_loss"])
    running = 0
    x_last = test_loss = None
    for ev in record.events:
        running += ev.evals_used_this_iter
        if x_last is None or not np.array_equal(ev.x_after, x_last):  # rejected steps stay put
            x_last, test_loss = ev.x_after, test_problem.true_f(ev.x_after)
        w.writerow([record.variant, running, repr(ev.true_f_after), repr(test_loss)])
    print(f"storm_final_train_loss={record.f_final_true!r}")
    if args.baseline == "adagrad":
        base = run_adagrad(train, step0=args.step0, batch=args.batch,
                           budget=budget, lam=args.lam, seed=args.seed)
        # loss_trace holds the training loss at each checkpoint, in the same order
        for (evals, train_loss), (_, x) in zip(base.loss_trace, base.x_checkpoints):
            w.writerow([base.variant, evals, repr(train_loss), repr(test_problem.true_f(x))])
        print(f"adagrad_final_train_loss={base.f_final_true!r}")
    _write_output(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormopt",
        description="Stochastic trust-region optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single solver run on a built-in problem")
    p_run.add_argument("--variant", choices=sorted(REGISTRY), required=True)
    p_run.add_argument("--problem", required=True)
    _add_noise_flags(p_run, "none")
    p_run.add_argument("--tau", type=float, default=1e-3)
    p_run.add_argument("--ftol", type=float, default=None,
                       help="absolute solved threshold on the noiseless f")
    p_run.add_argument("--budget-mult", type=int, default=0,
                       help="budget = mult * (n+1); 0 keeps the problem default")
    p_run.add_argument("--budget", type=int, default=0, help="absolute budget override")
    _add_common_tr_flags(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="failure-probability sweep")
    p_sweep.add_argument("--problem", default="simple-quad-10")
    p_sweep.add_argument("--ps-grid", default="0.9,0.95,0.99,0.999,1.0")
    p_sweep.add_argument("--seeds", type=int, default=30)
    p_sweep.add_argument("--budget", type=int, default=10_000)
    p_sweep.add_argument("--ftol", type=float, default=1e-5)
    p_sweep.add_argument("--epsilon", type=float, default=0.1)
    p_sweep.add_argument("--garbage", type=float, default=-10000.0)
    _add_common_tr_flags(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_prof = sub.add_parser("profile", help="multi-solver performance profiles")
    p_prof.add_argument("--solvers", default="storm-unbiased,tr-saa,tr-saa-resample")
    p_prof.add_argument("--problems", default="all")
    p_prof.add_argument("--noise", choices=["none", "multiplicative", "additive"],
                        default="multiplicative")
    p_prof.add_argument("--sigma", type=float, default=1e-3)
    p_prof.add_argument("--tau", type=float, default=1e-3)
    p_prof.add_argument("--seeds", type=int, default=10)
    p_prof.add_argument("--budget-mult", type=int, default=1000)
    p_prof.add_argument("--fstar-from-run", action="store_true",
                        help="take f* from zero-noise reference runs instead of "
                             "the known analytic optima")
    p_prof.add_argument("--raw-out", help="write the per-seed table here")
    p_prof.add_argument("--curves-out", help="write profile curves here")
    _add_common_tr_flags(p_prof)
    p_prof.set_defaults(handler=cmd_profile)

    p_th = sub.add_parser("theory", help="theory-constants calculator")
    p_th.add_argument("--L", type=Fraction, default=Fraction(1))
    p_th.add_argument("--kappa", type=Fraction, default=Fraction(10),
                      help="sets kappa_ef = kappa_eg = kappa_bhm = kappa * L")
    p_th.add_argument("--kef", type=Fraction, default=None)
    p_th.add_argument("--keg", type=Fraction, default=None)
    p_th.add_argument("--kbhm", type=Fraction, default=None)
    p_th.add_argument("--kfcd", type=Fraction, default=Fraction(1, 2))
    p_th.add_argument("--eta1", type=Fraction, default=Fraction(1, 2))
    p_th.add_argument("--gamma", type=Fraction, default=Fraction(2))
    p_th.add_argument("--alpha", type=float, default=None)
    p_th.add_argument("--beta", type=float, default=None)
    p_th.add_argument("--n", type=int, default=None,
                      help="dimension for failure-noise probabilities")
    p_th.add_argument("--success-prob", type=float, default=None,
                      help="per-component success level 1-sigma")
    p_th.add_argument("--config")
    p_th.add_argument("--out")
    p_th.set_defaults(handler=cmd_theory)

    p_tr = sub.add_parser("train", help="logistic-loss training experiment")
    p_tr.add_argument("--data", default="synthetic",
                      help="LIBSVM-format path, or 'synthetic'")
    p_tr.add_argument("--n-samples", type=int, default=2000)
    p_tr.add_argument("--n-features", type=int, default=10)
    p_tr.add_argument("--margin-noise", type=float, default=0.3)
    p_tr.add_argument("--data-seed", type=int, default=7)
    p_tr.add_argument("--lambda", dest="lam", type=float, default=1e-4)
    p_tr.add_argument("--hessian", choices=["on", "off"], default="on")
    p_tr.add_argument("--baseline", choices=["none", "adagrad"], default="adagrad")
    p_tr.add_argument("--budget", type=int, default=0,
                      help="data evaluations; 0 means one pass over the training set")
    p_tr.add_argument("--split-seed", type=int, default=0)
    p_tr.add_argument("--step0", type=float, default=1.0)
    p_tr.add_argument("--batch", type=int, default=10)
    _add_common_tr_flags(p_tr)
    p_tr.set_defaults(handler=cmd_train)

    return parser


def cli_main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # Pre-scan for --config so file values become subcommand defaults that
        # explicit flags still override. A trailing --config with no path is
        # left for argparse to reject.
        if "--config" in argv[:-1]:
            config = _load_config_file(argv[argv.index("--config") + 1])
            if not argv[0].startswith("-"):
                sub_actions = [a for a in parser._actions
                               if isinstance(a, argparse._SubParsersAction)]
                subparser = sub_actions[0].choices.get(argv[0])
                if subparser is not None:
                    _apply_config_defaults(subparser, config)
        args = parser.parse_args(argv)
        return args.handler(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
