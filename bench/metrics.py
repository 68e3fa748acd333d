"""Metric names, units and the reduction of one traced pass to per-layer
numbers.  BENCHMARK.json lists the same names; `selfcheck.py` keeps the two
in step.

Times are self times (a span's duration minus its wrapped children's),
except for entry points whose whole cost is the point: `twolink.f_physics_s`,
`elemlink.lp_steady_s`, `elemlink.backward_s` and `cli.*_s` are inclusive.
A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LADDER = ("m4", "m6", "m8")
SELFTEST_NAMES = ("steady_state", "lp_vs_cutoffs", "two_link_waiting",
                  "joining_fidelities", "distillation", "collective_waiting",
                  "satellite_link", "backward_recursion", "key_rates")

PER_LAYER = (
    ("lp.solve_s", "s"),
    *((f"lp.solve_s.{r}", "s") for r in LADDER),
    ("lp.solve_s.m12", "s"),
    ("lp.solve_s.m8.blas1", "s"),
    ("lp.solve_s.m12.blas1", "s"),
    ("lp.solve_calls", "count"),
    ("lp.assemble_s", "s"),
    ("lp.rows.m8", "count"),
    ("lp.cols.m8", "count"),
    ("lp.nnz.m8", "count"),
    ("twolink.build_s", "s"),
    ("twolink.build_calls", "count"),
    ("twolink.f_physics_s", "s"),
    ("markov.absorb_s", "s"),
    ("markov.absorb_calls", "count"),
    ("markov.stationary_s", "s"),
    ("markov.policy_matrix_s", "s"),
    ("mc.two_link_s", "s"),
    ("mc.elem_s", "s"),
    ("mc.collective_s", "s"),
    ("mc.trial_steps", "count"),
    ("mc.ns_per_trial_step", "ns"),
    ("mc.exhausted_frac", "ratio"),
    ("qstate.validate_s", "s"),
    ("qstate.validate_calls", "count"),
    ("qstate.validate_s.d256", "s"),
    ("qstate.validate_s.d1024", "s"),
    ("qstate.channel_s.d256", "s"),
    ("qstate.channel_s.d1024", "s"),
    ("qstate.validate_to_channel", "ratio"),
    ("elemlink.lp_steady_s", "s"),
    ("elemlink.backward_s", "s"),
    ("satlink.busy_s", "s"),
    ("waiting.busy_s", "s"),
    ("oracles.busy_s", "s"),
    *((f"selftest.{n}_s", "s") for n in SELFTEST_NAMES),
    ("cli.readme_s", "s"),
    ("cli.selftest_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)

# filled in by run.py from other workers, not from the pass itself
RUN_LEVEL = ("lp.solve_s.m8.blas1", "lp.solve_s.m12.blas1", "trace.overhead_s")

ABSORB = ("markov.decompose_absorbing", "markov.absorption_time",
          "markov.absorption_distribution")
CHANNELS = ("qstate.swap_chain_channel", "qstate.ghz_swap_channel",
            "qstate.graph_dist_channel")
# the simulators that sample one transition per trial per step
STEPPED_MC = ("mc.simulate_two_link", "mc.simulate_elem")


def layer_metrics(tracer, wall_s, criteria_names):
    """Per-layer numbers of one traced pass.  `criteria_names` are the
    selftest criterion function names, in `run_all` record order."""
    spans, selfs = tracer.spans, tracer.self_times()
    out = {name: 0.0 for name, _ in PER_LAYER if name not in RUN_LEVEL}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    steps = trials = exhausted = 0
    mc_step_s = channel_s = 0.0
    top = 0.0
    for s, st in zip(spans, selfs):
        name, attrs = s.name, s.attrs or {}
        layer = name.split(".", 1)[0]
        if s.parent < 0:
            top += s.dur
        if layer in ("satlink", "waiting", "oracles"):
            add(f"{layer}.busy_s", st)
        if name == "lp.solve":
            add("lp.solve_s", st)
            add("lp.solve_calls", 1)
            if s.label in LADDER + ("m12",):
                add(f"lp.solve_s.{s.label}", st)
            if s.label == "m8":
                A = attrs["lp"].A
                out["lp.rows.m8"] = max(out["lp.rows.m8"], A.shape[0])
                out["lp.cols.m8"] = max(out["lp.cols.m8"], A.shape[1])
                out["lp.nnz.m8"] = max(out["lp.nnz.m8"], int((A != 0).sum()))
        elif name.startswith("lp.mdp_"):
            add("lp.assemble_s", st)
        elif name == "twolink.build_two_link_mdp":
            add("twolink.build_s", st)
            add("twolink.build_calls", 1)
        elif name == "twolink.two_link_f_from_physics":
            add("twolink.f_physics_s", s.dur)
        elif name in ABSORB:
            add("markov.absorb_s", st)
            add("markov.absorb_calls", 1)
        elif name == "markov.stationary_distribution":
            add("markov.stationary_s", st)
        elif name == "markov.policy_matrix":
            add("markov.policy_matrix_s", st)
        elif name.startswith("mc.simulate_"):
            add(f"mc.{name[len('mc.simulate_'):]}_s", st)
            if name in STEPPED_MC:
                mc_step_s += st
                steps += attrs["steps"]
                trials += attrs["trials"]
                exhausted += attrs["exhausted"]
        elif name == "qstate.DensityOperator":
            add("qstate.validate_s", st)
            add("qstate.validate_calls", 1)
            if attrs["dim"] in (256, 1024):
                add(f"qstate.validate_s.d{attrs['dim']}", st)
        elif name in CHANNELS:
            channel_s += st
            if attrs.get("dim") in (256, 1024):
                add(f"qstate.channel_s.d{attrs['dim']}", st)
        elif name == "elemlink.lp_optimal_steady":
            add("elemlink.lp_steady_s", s.dur)
        elif name == "elemlink.optimal_backward":
            add("elemlink.backward_s", s.dur)
        elif name == "selftest.run_all":
            for fn_name, seconds in zip(criteria_names, attrs["records"]):
                key = f"selftest.{fn_name.removeprefix('criterion_')}_s"
                if key in out:
                    add(key, seconds)
        elif name == "cli.main":
            add("cli.selftest_s" if attrs["selftest"] else "cli.readme_s", s.dur)

    out["mc.trial_steps"] = steps
    out["mc.ns_per_trial_step"] = mc_step_s / steps * 1e9 if steps else 0.0
    out["mc.exhausted_frac"] = exhausted / trials if trials else 0.0
    out["qstate.validate_to_channel"] = (out["qstate.validate_s"] / channel_s
                                         if channel_s > 0 else 0.0)
    out["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
    return out
