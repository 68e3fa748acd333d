"""Command-line interface.

Exit codes: 0 success, 1 selftest failure, 2 invalid input, 3 numerical
failure (a machine-readable JSON diagnostic goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, elemlink, mc, satlink, selftest, twolink, waiting
from .markov import ModelError, Policy
from .qstate import QuantumError
from .satlink import SatError


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _emit(rows, args):
    """rows: list of dicts with a common key set, in order."""
    if args.format == "json":
        payload = {"meta": {"version": __version__, "seed": args.seed},
                   "data": rows}
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        keys = list(rows[0].keys())
        lines = [",".join(keys)]
        for r in rows:
            lines.append(",".join(_fmt(r[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_f(text, m_star):
    vals = [float(v) for v in text.split(",")]
    if len(vals) != m_star + 1:
        raise ModelError(f"--f needs {m_star + 1} values (ages 0..{m_star})")
    return np.concatenate([[0.0], vals])


def _elem_model(args):
    if args.f is not None:
        f = _parse_f(args.f, args.m_star)
    else:
        f = satlink.memory_f_vector(args.m_star, args.t_coh, args.alpha, args.beta)
    return elemlink.ElemLinkModel(args.p, args.m_star, f)


def _add_elem_model_args(sp):
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--m-star", type=int, required=True)
    sp.add_argument("--f", help="comma-separated f(0),...,f(m*)")
    sp.add_argument("--t-coh", type=float, default=50.0,
                    help="memory coherence steps (used when --f is absent)")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--beta", type=float, default=0.5)


def cmd_elem_steady(args):
    model = _elem_model(args)
    rows = []
    for ts in range(model.m_star + 1):
        ftilde, x, f = elemlink.cutoff_steady_values(model, ts)
        rows.append({"t_star": ts, "ftilde": ftilde, "x": x, "f": f})
    d = elemlink.cutoff_decision(model, math.inf)
    s, ftilde = elemlink.steady_state_closed_form(model, d)
    rows.append({"t_star": "inf", "ftilde": ftilde, "x": 1.0 - s.entries[0],
                 "f": ftilde / (1.0 - s.entries[0]) if s.entries[0] < 1 else 0.0})
    _emit(rows, args)


def cmd_elem_optimal(args):
    model = _elem_model(args)
    value, d = elemlink.lp_optimal_steady(model)
    _emit([{"state": s, "wait": d.table[i, 0], "request": d.table[i, 1],
            "optimal_ftilde": value} for i, s in enumerate(model.states)], args)


def cmd_elem_backward(args):
    model = _elem_model(args)
    value, policy = elemlink.optimal_backward(model, args.t)
    _emit([{"horizon": args.t, "optimal_value": value}], args)


def cmd_elem_forward(args):
    model = _elem_model(args)
    d = elemlink.forward_recursion_decision(model)
    s, ftilde = elemlink.steady_state_closed_form(model, d)
    rows = [{"state": st, "request": d.table[i, 1], "stationary": s.entries[i]}
            for i, st in enumerate(model.states)]
    rows.append({"state": "ftilde", "request": "", "stationary": ftilde})
    _emit(rows, args)


def _two_link_model(args):
    if getattr(args, "t_coh", None) is not None:
        f = np.zeros((2, args.m1_star + 2, args.m2_star + 2))
        for m1 in range(args.m1_star + 1):
            for m2 in range(args.m2_star + 1):
                f[1, m1 + 1, m2 + 1] = satlink.memory_f(
                    m1 + m2, args.t_coh, args.alpha, args.beta)
    else:
        f = twolink.uniform_f_table(args.m1_star, args.m2_star)
    return twolink.TwoLinkModel(args.p1, args.p2, args.q,
                                args.m1_star, args.m2_star, f)


def _add_two_link_args(sp, with_f=False):
    sp.add_argument("--p1", type=float, required=True)
    sp.add_argument("--p2", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--m1-star", type=int, required=True)
    sp.add_argument("--m2-star", type=int, required=True)
    if with_f:
        sp.add_argument("--t-coh", type=float, default=None,
                        help="build f from memory decay; default uniform f=1")
        sp.add_argument("--alpha", type=float, default=0.5)
        sp.add_argument("--beta", type=float, default=0.5)


def cmd_twolink_lp_fidelity(args):
    model = _two_link_model(args)
    value, _ = twolink.lp_optimal_value(model)
    _emit([{"optimal_f_at_absorption": value}], args)


def cmd_twolink_lp_waiting(args):
    args.t_coh = None
    model = _two_link_model(args)
    value, _ = twolink.lp_optimal_waiting_time(model)
    _emit([{"min_expected_waiting": value}], args)


def cmd_twolink_analytic(args):
    val = twolink.analytic_symmetric_waiting_time(args.p, args.q, args.t_star)
    _emit([{"expected_waiting": val}], args)


def cmd_twolink_evaluate(args):
    model = _two_link_model(args)
    d = twolink.cutoff_decision(model, args.t1_star, args.t2_star)
    wait, f_abs = twolink.evaluate_policy(model, d)
    _emit([{"expected_waiting": wait, "f_at_absorption": f_abs}], args)


def _link_from_args(args):
    geom = satlink.SatGeometry(args.d, args.h)
    opt = satlink.OpticalParams(eta_zen=args.eta_zen)
    L = satlink.path_length(geom)
    eta = satlink.eta_sg(L, args.h, opt)
    src = satlink.SatSourceParams(args.fs, args.nbar1, args.nbar2, args.M)
    link = satlink.heralded_link(eta, eta, src)
    return L, eta, src, link


def _add_sat_args(sp, d_required=True):
    sp.add_argument("--d", type=float, required=d_required,
                    help="ground separation, km")
    sp.add_argument("--h", type=float, default=500.0, help="orbit altitude, km")
    sp.add_argument("--fs", type=float, default=1.0)
    sp.add_argument("--nbar1", type=float, default=0.0)
    sp.add_argument("--nbar2", type=float, default=0.0)
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--eta-zen", type=float, default=0.5)


def cmd_satlink_link(args):
    L, eta, src, link = _link_from_args(args)
    c = link.coeffs
    _emit([{"path_length_km": L, "eta": eta,
            "p": satlink.multiplexed_p(link.p, src.M),
            "phi_plus": c.phi_plus, "phi_minus": c.phi_minus,
            "psi_plus": c.psi_plus, "psi_minus": c.psi_minus,
            "entangled": satlink.entangled(link, args.fs)}], args)


def cmd_satlink_sweep(args):
    rows = []
    for d in np.linspace(args.d_min, args.d_max, args.steps):
        args.d = float(d)
        L, eta, src, link = _link_from_args(args)
        rows.append({"d_km": float(d), "path_length_km": L, "eta": eta,
                     "p": satlink.multiplexed_p(link.p, src.M),
                     "phi_plus": link.coeffs.phi_plus,
                     "entangled": satlink.entangled(link, args.fs)})
    _emit(rows, args)


def cmd_satlink_keyrates(args):
    L, eta, src, link = _link_from_args(args)
    p = satlink.multiplexed_p(link.p, src.M)
    rows = []
    for proto in ("bb84", "6state", "di"):
        try:
            Q, K, rate = satlink.qber_and_rates(link.alpha, link.beta, proto,
                                                src.M, link.p)
        except SatError:
            Q, K, rate = float("nan"), float("-inf"), 0.0
        rows.append({"protocol": proto, "qber": Q, "key_fraction": K,
                     "key_per_step": rate})
    _emit(rows, args)


def cmd_waiting_collective(args):
    e = waiting.collective_expected_infty(args.M, args.p, args.t_req)
    row = {"M": args.M, "p": args.p, "t_req": args.t_req, "expected_waiting": e}
    if args.q is not None:
        row["expected_virtual"] = waiting.virtual_expected(e, args.q)
    _emit([row], args)


def _mean_se(samples, what):
    """Sample mean and standard error; fewer than two samples is an error."""
    if samples.size < 2:
        raise ModelError(f"{what}: {samples.size} usable samples, "
                         "a standard error needs at least 2")
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


def cmd_simulate_elem(args):
    model = _elem_model(args)
    ts = math.inf if args.t_star is None else args.t_star
    policy = Policy.stationary(elemlink.cutoff_decision(model, ts))
    cfg = mc.SimConfig(seed=args.seed, trials=args.trials, horizon=args.horizon)
    res = mc.simulate_elem(model, policy, cfg)
    t_last = args.horizon - 1
    _emit([{"t": args.horizon, "ftilde": res["ftilde"][t_last],
            "ftilde_se": res["ftilde_se"][t_last], "x": res["x"][t_last],
            "x_se": res["x_se"][t_last], "rng": res["rng"]}], args)


def cmd_simulate_twolink(args):
    model = _two_link_model(args)
    d = twolink.cutoff_decision(model, args.t1_star, args.t2_star)
    cfg = mc.SimConfig(seed=args.seed, trials=args.trials, horizon=args.horizon)
    res = mc.simulate_two_link(model, d, cfg)
    mean, se = _mean_se(res["wait_samples"],
                        f"simulate twolink: {res['exhausted']} of {args.trials} trajectories "
                        f"exhausted --horizon {args.horizon}")
    _emit([{"mean_waiting": mean, "waiting_se": se, "mean_f": res["f_samples"].mean(),
            "exhausted": res["exhausted"], "rng": res["rng"]}], args)


def cmd_simulate_collective(args):
    cfg = mc.SimConfig(seed=args.seed, trials=args.trials)
    res = mc.simulate_collective(args.M, args.p, args.t_req, cfg)
    mean, se = _mean_se(res["wait_samples"], f"simulate collective: --trials {args.trials}")
    _emit([{"mean_waiting": mean, "waiting_se": se, "rng": res["rng"]}], args)


def run_selftest(args):
    results = selftest.run_all(args.seed)
    rows = [{"criterion": r["criterion"], "passed": r["passed"],
             "max_err": r["max_err"], "note": r["note"]} for r in results]
    _emit(rows, args)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['criterion']} (max_err={r['max_err']:.3g}, "
              f"{r['seconds']:.1f}s)", file=sys.stderr)
    return 0 if all(r["passed"] for r in results) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="entlink",
        description="Entanglement-distribution link analysis: MDP policies, "
                    "LP optima, satellite links, waiting times, key rates.")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--config", help="JSON file with default argument values")
    ap.add_argument("--out", help="write output to this file instead of stdout")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--seed", type=int, default=20260824)
    ap.add_argument("--selftest", action="store_true",
                    help="run the acceptance checks and exit nonzero on failure")
    sub = ap.add_subparsers(dest="command")

    elem = sub.add_parser("elem", help="single-link model").add_subparsers(dest="sub")
    for name, fn, extra in (
            ("steady", cmd_elem_steady, None),
            ("optimal", cmd_elem_optimal, None),
            ("backward", cmd_elem_backward, "t"),
            ("forward", cmd_elem_forward, None)):
        sp = elem.add_parser(name)
        _add_elem_model_args(sp)
        if extra == "t":
            sp.add_argument("--t", type=int, required=True)
        sp.set_defaults(func=fn)

    two = sub.add_parser("twolink", help="two links plus swapping").add_subparsers(dest="sub")
    sp = two.add_parser("lp-fidelity")
    _add_two_link_args(sp, with_f=True)
    sp.set_defaults(func=cmd_twolink_lp_fidelity)
    sp = two.add_parser("lp-waiting")
    _add_two_link_args(sp)
    sp.set_defaults(func=cmd_twolink_lp_waiting)
    sp = two.add_parser("analytic")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--t-star", type=int, required=True)
    sp.set_defaults(func=cmd_twolink_analytic)
    sp = two.add_parser("evaluate")
    _add_two_link_args(sp, with_f=True)
    sp.add_argument("--t1-star", type=int, required=True)
    sp.add_argument("--t2-star", type=int, required=True)
    sp.set_defaults(func=cmd_twolink_evaluate)

    sat = sub.add_parser("satlink", help="satellite downlink case study").add_subparsers(dest="sub")
    sp = sat.add_parser("link")
    _add_sat_args(sp)
    sp.set_defaults(func=cmd_satlink_link)
    sp = sat.add_parser("sweep")
    _add_sat_args(sp, d_required=False)
    sp.add_argument("--d-min", type=float, required=True)
    sp.add_argument("--d-max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=50)
    sp.set_defaults(func=cmd_satlink_sweep)
    sp = sat.add_parser("keyrates")
    _add_sat_args(sp)
    sp.set_defaults(func=cmd_satlink_keyrates)

    wait = sub.add_parser("waiting", help="multi-link waiting times").add_subparsers(dest="sub")
    sp = wait.add_parser("collective")
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--t-req", type=int, default=0)
    sp.add_argument("--q", type=float, default=None,
                    help="joining success prob; adds the virtual-link value")
    sp.set_defaults(func=cmd_waiting_collective)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo").add_subparsers(dest="sub")
    sp = sim.add_parser("elem")
    _add_elem_model_args(sp)
    sp.add_argument("--t-star", type=int, default=None)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--horizon", type=int, default=200)
    sp.set_defaults(func=cmd_simulate_elem)
    sp = sim.add_parser("twolink")
    _add_two_link_args(sp, with_f=True)
    sp.add_argument("--t1-star", type=int, required=True)
    sp.add_argument("--t2-star", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--horizon", type=int, default=10_000)
    sp.set_defaults(func=cmd_simulate_twolink)
    sp = sim.add_parser("collective")
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--t-req", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.set_defaults(func=cmd_simulate_collective)
    return ap


def _apply_config(ap, path):
    """Make the JSON object in `path` the defaults of `ap` and of every
    subcommand parser, so options given on the command line still win."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ModelError("--config: expected a JSON object")
    cfg = {key.replace("-", "_"): val for key, val in cfg.items()}
    parsers = [ap]
    for parser in parsers:  # grows as subcommand parsers are found
        parsers.extend(sub for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)
                       for sub in action.choices.values())
        parser.set_defaults(**{k: v for k, v in cfg.items()
                               if any(a.dest == k for a in parser._actions)})


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            _apply_config(ap, args.config)
            args = ap.parse_args(argv)
        if args.selftest:
            return run_selftest(args)
        if not getattr(args, "func", None):
            ap.print_help()
            return 2
        args.func(args)
        return 0
    except (ModelError, SatError, QuantumError, OSError, json.JSONDecodeError) as exc:
        print(f"entlink: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        diag = {"error": "numerical", "detail": str(exc)}
        print(json.dumps(diag), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
