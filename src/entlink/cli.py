"""Command-line interface.

Exit codes: 0 success, 1 selftest failure, 2 invalid input, 3 numerical
failure (a machine-readable JSON diagnostic goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, elemlink, mc, satlink, selftest, twolink, waiting
from .markov import ModelError, NumericalError, Policy
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
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ModelError(f"--f: {text!r} is not a comma-separated list of numbers") from None
    if len(vals) != m_star + 1:
        raise ModelError(f"--f needs {m_star + 1} values (ages 0..{m_star})")
    return np.concatenate([[0.0], vals])


def _elem_model(args):
    if args.f is not None:
        f = _parse_f(args.f, args.m_star)
    else:
        f = satlink.memory_f_vector(args.m_star, args.t_coh, args.alpha, args.beta)
    return elemlink.ElemLinkModel(args.p, args.m_star, f)


def cmd_elem_steady(args):
    model = _elem_model(args)
    rows = []
    for ts in (*range(model.m_star + 1), math.inf):
        ftilde, x, f = elemlink.cutoff_steady_values(model, ts)
        rows.append({"t_star": "inf" if ts == math.inf else ts,
                     "ftilde": ftilde, "x": x, "f": f})
    _emit(rows, args)


def cmd_elem_optimal(args):
    model = _elem_model(args)
    value, d = elemlink.lp_optimal_steady(model)
    _emit([{"state": s, "wait": d.table[i, 0], "request": d.table[i, 1],
            "optimal_ftilde": value} for i, s in enumerate(model.states)], args)


def cmd_elem_backward(args):
    model = _elem_model(args)
    value, _ = elemlink.optimal_backward(model, args.t)
    _emit([{"horizon": args.t, "optimal_value": value}], args)


def cmd_elem_forward(args):
    model = _elem_model(args)
    d = elemlink.forward_recursion_decision(model)
    s, ftilde = elemlink.steady_state_closed_form(model, d)
    rows = [{"state": st, "request": d.table[i, 1], "stationary": s[i]}
            for i, st in enumerate(model.states)]
    rows.append({"state": "ftilde", "request": "", "stationary": ftilde})
    _emit(rows, args)


def _two_link_model(args):
    f = twolink.uniform_f_table(args.m1_star, args.m2_star)
    if getattr(args, "t_coh", None) is not None:  # f(m1, m2) = memory_f(m1 + m2)
        total_age = np.add.outer(np.arange(args.m1_star + 1), np.arange(args.m2_star + 1))
        f[1, 1:, 1:] = satlink.memory_f_vector(args.m1_star + args.m2_star, args.t_coh,
                                               args.alpha, args.beta)[1 + total_age]
    return twolink.TwoLinkModel(args.p1, args.p2, args.q,
                                args.m1_star, args.m2_star, f)


def cmd_twolink_lp_fidelity(args):
    model = _two_link_model(args)
    value, _ = twolink.lp_optimal_value(model)
    _emit([{"optimal_f_at_absorption": value}], args)


def cmd_twolink_lp_waiting(args):
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


def _link_from_args(args, d):
    geom = satlink.SatGeometry(d, args.h)
    L = satlink.path_length(geom)
    eta = satlink.eta_sg(L, args.h, args.eta_zen)
    src = satlink.SatSourceParams(args.fs, args.nbar1, args.nbar2, args.M)
    link = satlink.heralded_link(eta, eta, src)
    return L, eta, src, link


def cmd_satlink_link(args):
    L, eta, src, link = _link_from_args(args, args.d)
    c = link.coeffs
    _emit([{"path_length_km": L, "eta": eta,
            "p": satlink.multiplexed_p(link.p, src.M),
            "phi_plus": c.phi_plus, "phi_minus": c.phi_minus,
            "psi_plus": c.psi_plus, "psi_minus": c.psi_minus,
            "entangled": satlink.entangled(link)}], args)


def cmd_satlink_sweep(args):
    if args.steps < 1:
        raise ModelError("satlink sweep: --steps must be >= 1")
    rows = []
    for d in np.linspace(args.d_min, args.d_max, args.steps):
        L, eta, src, link = _link_from_args(args, float(d))
        rows.append({"d_km": float(d), "path_length_km": L, "eta": eta,
                     "p": satlink.multiplexed_p(link.p, src.M),
                     "phi_plus": link.coeffs.phi_plus,
                     "entangled": satlink.entangled(link)})
    _emit(rows, args)


def cmd_satlink_keyrates(args):
    _, _, src, link = _link_from_args(args, args.d)
    rows = []
    for proto in ("bb84", "6state", "di"):
        Q, K, rate = satlink.qber_and_rates(link.alpha, link.beta, proto, src.M, link.p)
        rows.append({"protocol": proto, "qber": Q, "key_fraction": "" if K is None else K,
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


_REQ = object()  # the default that marks an option as required


def _add_options(parser, opts):
    """One option per key of `opts`: m_star=(int, 50) is --m-star of type int
    and default 50.  A value is (type, default) or (type, default, help), and
    the default _REQ makes the option required."""
    for name, (type_, default, *help_) in opts.items():
        kw = {"required": True} if default is _REQ else {"default": default}
        parser.add_argument("--" + name.replace("_", "-"), type=type_,
                            help=help_[0] if help_ else None, **kw)
    return parser


def _options(*parents, **opts):
    """A parser to pass as `parents=`: the options of `parents`, then `opts`."""
    return _add_options(argparse.ArgumentParser(add_help=False, parents=parents), opts)


def build_parser():
    """The entlink parser.  Each option group shared by subcommands is one
    parent parser; `ap.subcommands` lists the subcommand parsers."""
    ap = argparse.ArgumentParser(
        prog="entlink",
        description="Entanglement-distribution link analysis: MDP policies, "
                    "LP optima, satellite links, waiting times, key rates.")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--config", help="JSON file with default argument values")
    ap.add_argument("--out", help="write output to this file instead of stdout")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)
    ap.add_argument("--selftest", action="store_true",
                    help="run the acceptance checks and exit nonzero on failure")

    # the groups share their actions with every subcommand that takes them,
    # and --config sets defaults on those actions, so a --config call parses
    # with a parser of its own (see main)
    decay = _options(alpha=(float, 0.5), beta=(float, 0.5))
    elem = _options(_options(p=(float, _REQ), m_star=(int, _REQ),
                             f=(None, None, "comma-separated f(0),...,f(m*)"),
                             t_coh=(float, 50.0, "memory coherence steps (used when --f is absent)")),
                    decay)
    two = _options(p1=(float, _REQ), p2=(float, _REQ), q=(float, _REQ),
                   m1_star=(int, _REQ), m2_star=(int, _REQ))
    two_decay = _options(_options(t_coh=(float, None,
                                         "build f from memory decay; default uniform f=1")), decay)
    cutoffs = _options(t1_star=(int, _REQ), t2_star=(int, _REQ))
    sat_d = _options(d=(float, _REQ, "ground separation, km"))
    sat = _options(h=(float, 500.0, "orbit altitude, km"), fs=(float, 1.0), nbar1=(float, 0.0),
                   nbar2=(float, 0.0), M=(int, 1), eta_zen=(float, 0.5))
    collective = _options(M=(int, _REQ), p=(float, _REQ), t_req=(int, 0))
    trials = _options(trials=(int, 100_000))

    sub = ap.add_subparsers(dest="command")
    groups = {name: sub.add_parser(name, help=text).add_subparsers(dest="sub")
              for name, text in (("elem", "single-link model"),
                                 ("twolink", "two links plus swapping"),
                                 ("satlink", "satellite downlink case study"),
                                 ("waiting", "multi-link waiting times"),
                                 ("simulate", "seeded Monte Carlo"))}
    ap.subcommands = []
    for group, name, func, parents, opts in (
            ("elem", "steady", cmd_elem_steady, [elem], {}),
            ("elem", "optimal", cmd_elem_optimal, [elem], {}),
            ("elem", "backward", cmd_elem_backward, [elem], {"t": (int, _REQ)}),
            ("elem", "forward", cmd_elem_forward, [elem], {}),
            ("twolink", "lp-fidelity", cmd_twolink_lp_fidelity, [two, two_decay], {}),
            ("twolink", "lp-waiting", cmd_twolink_lp_waiting, [two], {}),
            ("twolink", "analytic", cmd_twolink_analytic, [],
             {"p": (float, _REQ), "q": (float, _REQ), "t_star": (int, _REQ)}),
            ("twolink", "evaluate", cmd_twolink_evaluate, [two, two_decay, cutoffs], {}),
            ("satlink", "link", cmd_satlink_link, [sat_d, sat], {}),
            ("satlink", "sweep", cmd_satlink_sweep, [sat],
             {"d_min": (float, _REQ), "d_max": (float, _REQ), "steps": (int, 50)}),
            ("satlink", "keyrates", cmd_satlink_keyrates, [sat_d, sat], {}),
            ("waiting", "collective", cmd_waiting_collective, [collective],
             {"q": (float, None, "joining success prob; adds the virtual-link value")}),
            ("simulate", "elem", cmd_simulate_elem, [elem, trials],
             {"t_star": (int, None), "horizon": (int, 200)}),
            ("simulate", "twolink", cmd_simulate_twolink, [two, two_decay, cutoffs, trials],
             {"horizon": (int, 10_000)}),
            ("simulate", "collective", cmd_simulate_collective, [collective, trials], {})):
        sp = _add_options(groups[group].add_parser(name, parents=parents), opts)
        sp.set_defaults(func=func)
        ap.subcommands.append(sp)
    return ap


def _apply_config(ap, path):
    """Make the JSON object in `path` the defaults of `ap` and of every
    parser in `ap.subcommands`, so options given on the command line still win.  An
    option's value goes in as a command line's string, which argparse
    converts with the option's type; it skips choices, checked here.  A key
    that names no option of any parser is an error."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ModelError("--config: expected a JSON object")
    cfg = {key.replace("-", "_"): val for key, val in cfg.items()}
    parsers = [ap, *ap.subcommands]
    for parser in parsers:
        for action in (a for a in parser._actions if a.dest in cfg):
            val = cfg[action.dest]
            if action.nargs != 0 and not isinstance(val, str):  # flags keep booleans
                val = json.dumps(val)
            if action.choices is not None and val not in action.choices:
                raise ModelError(f"--config: {action.dest} must be one of {list(action.choices)}")
            parser.set_defaults(**{action.dest: val})
    unknown = set(cfg).difference(a.dest for parser in parsers for a in parser._actions)
    if unknown:
        raise ModelError(f"--config: no option named {', '.join(map(repr, sorted(unknown)))}")


@functools.cache
def _parser():
    """The parser of every call without --config, built on first use."""
    return build_parser()


def main(argv=None):
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        if args.config:  # never set defaults on the shared parser
            ap = build_parser()
            _apply_config(ap, args.config)
            args = ap.parse_args(argv)
        if args.seed < 0:
            raise ModelError("--seed must be >= 0")
        if args.selftest:
            return run_selftest(args)
        if not getattr(args, "func", None):
            ap.print_help()
            return 2
        args.func(args)
        return 0
    except (NumericalError, np.linalg.LinAlgError) as exc:
        diag = {"error": "numerical", "detail": str(exc)}
        print(json.dumps(diag), file=sys.stderr)
        return 3
    except (ModelError, SatError, QuantumError, OSError, json.JSONDecodeError) as exc:
        print(f"entlink: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
