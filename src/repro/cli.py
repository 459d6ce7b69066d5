"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a bench-style front door:

* ``table1`` / ``table2``     — run the full characterisation and print
  the paper-vs-measured spec report;
* ``noise``                   — Fig. 7 noise spectrum at a gain code;
* ``gains``                   — Fig. 5 per-code gain table;
* ``opamp``                   — the modulator opamp's figures of merit;
* ``campaign``                — declarative PVT x mismatch x gain-code
  characterization sweeps through :mod:`repro.campaign`, with optional
  parallel execution, CSV/JSON export, ``--store``-backed incremental
  reruns and ``--spec FILE`` request files (the serve-layer schema);
* ``store ls|stat|gc|export`` — inspect and maintain a persistent
  result store (:mod:`repro.store`);
* ``serve``                   — run the characterization service
  (:mod:`repro.serve`): HTTP/JSON job submission, request coalescing,
  store-backed warm hits;
* ``client``                  — submit/poll/fetch against a running
  ``repro serve`` endpoint;
* ``ingest <deck>``           — compile an external SPICE netlist
  (:mod:`repro.ingest`): validate, flatten, DC/AC analyses via a
  port-binding file;
* ``export <block> <file>``   — write a block's SPICE deck for
  cross-checking with an external simulator.
"""

from __future__ import annotations

import argparse
import sys

from repro.process import CMOS12


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.pga.characterize import CharacterizationOptions, characterize_mic_amp
    from repro.pga.specs import MIC_AMP_SPEC

    measured = characterize_mic_amp(
        CMOS12, CharacterizationOptions(quick=args.quick)
    )
    report = MIC_AMP_SPEC.check(measured)
    print(report.format())
    return 0 if report.passed else 1


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.pga.characterize import (
        CharacterizationOptions,
        characterize_power_buffer,
    )
    from repro.pga.specs import POWER_BUFFER_SPEC

    measured = characterize_power_buffer(
        CMOS12, CharacterizationOptions(quick=args.quick)
    )
    report = POWER_BUFFER_SPEC.check(measured)
    print(report.format())
    return 0 if report.passed else 1


def _cmd_noise(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.circuits.micamp import build_mic_amp
    from repro.spice.analysis import log_freqs
    from repro.spice.dc import dc_operating_point
    from repro.spice.noise import noise_analysis

    design = build_mic_amp(CMOS12, gain_code=args.code)
    op = dc_operating_point(design.circuit)
    freqs = log_freqs(10, 100e3, 10)
    nr = noise_analysis(op, freqs, design.outp, design.outn)
    print(f"input-referred noise at gain code {args.code} "
          f"({design.gain.gain_db(args.code):.0f} dB):")
    for f, nv in zip(freqs, nr.input_nv()):
        print(f"  {f:10.1f} Hz   {nv:7.2f} nV/rtHz")
    avg = nr.average_input_density(300, 3400) * 1e9
    print(f"voice-band average: {avg:.2f} nV/rtHz (paper: 5.1 at 40 dB)")
    _ = np
    return 0


def _cmd_gains(args: argparse.Namespace) -> int:
    from repro.analysis.gain import measure_gain_codes
    from repro.circuits.micamp import build_mic_amp

    design = build_mic_amp(CMOS12, gain_code=5)
    gm = measure_gain_codes(design)
    print(gm.format())
    print(f"worst absolute error: {gm.worst_error_db:.4f} dB "
          f"(paper: <= 0.05)")
    return 0


def _cmd_opamp(args: argparse.Namespace) -> int:
    from repro.circuits.opamp import characterize_modulator_opamp

    result = characterize_modulator_opamp(CMOS12)
    print("modulator opamp (Sec. 2.2, class A output, ~150 uA):")
    print(f"  I_Q          {result['iq_ua']:7.1f} uA")
    print(f"  DC gain      {result['dc_gain_db']:7.1f} dB")
    print(f"  GBW          {result['gbw_hz'] / 1e6:7.2f} MHz")
    print(f"  phase margin {result['phase_margin_deg']:7.1f} deg")
    return 0


def _parse_axis(text: str, cast, none_words=()):
    """Comma list -> tuple, mapping the ``none_words`` to ``None``.

    Only axes where ``None`` is meaningful (nominal supply/devices/code)
    pass ``none_words``; elsewhere the word is a parse error like any
    other bad token.
    """
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        out.append(None if item.lower() in none_words else cast(item))
    return tuple(out)


_NONE_WORDS = ("none", "nominal")


def _cmd_campaign(args: argparse.Namespace) -> int:
    import contextlib
    import time

    from repro.campaign import CampaignSpec, run_campaign
    from repro.process import CORNERS

    if args.spec is not None:
        # Shared schema with the serve layer: any malformed file —
        # invalid JSON, unknown keys, bad axes — is a single error line
        # and exit 2, exactly like POST /v1/campaigns answers 400.
        from repro.serve.validate import SpecValidationError, load_request_file

        try:
            spec = load_request_file(args.spec, "campaign")
        except SpecValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        corners = (tuple(CORNERS) if args.corners.lower() == "all"
                   else _parse_axis(args.corners, str))
        try:
            if args.seeds is not None:
                seeds = _parse_axis(args.seeds, int, _NONE_WORDS)
            elif args.trials > 0:
                seeds = tuple(range(args.trials))
            else:
                seeds = (None,)
            spec = CampaignSpec(
                builder=args.builder,
                corners=corners,
                temps_c=_parse_axis(args.temps, float),
                supplies=_parse_axis(args.supplies, float, _NONE_WORDS),
                seeds=seeds,
                gain_codes=_parse_axis(args.codes, int, _NONE_WORDS),
                measurements=_parse_axis(args.measure, str),
            )
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    store = None
    if args.store is not None:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    print(f"campaign: {spec.n_units} units "
          f"({len(spec.corners)} corners x {len(spec.temps_c)} temps x "
          f"{len(spec.supplies)} supplies x {len(spec.seeds)} seeds x "
          f"{len(spec.gain_codes)} codes)")
    from repro.obs import Recorder, active, format_profile

    rec = None
    with contextlib.ExitStack() as stack:
        # --profile reads whichever recorder is armed; --trace-out needs
        # its own, exporting to the named file.
        if args.trace_out is not None or (args.profile and active() is None):
            rec = stack.enter_context(
                Recorder(export_path=args.trace_out).activate())
            stack.callback(rec.close)
        t0 = time.perf_counter()
        try:
            result = run_campaign(spec, store=store)
        except ValueError as exc:
            # Builder/measurement incompatibilities surface at run time
            # (e.g. gain codes on a codeless builder); report them like
            # parse errors.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        wall = time.perf_counter() - t0
    print(f"done in {wall:.2f} s ({spec.n_units / wall:.1f} units/s)")
    if result.store_stats is not None:
        print(f"store: {result.store_stats['reused_units']} reused, "
              f"{result.store_stats['executed_units']} executed "
              f"(root {result.store_stats['store_root']})")
    if args.trace_out is not None:
        print(f"trace: wrote {rec.recorded} record(s) to {args.trace_out}")
    if args.profile and result.stats is not None:
        print()
        print(format_profile(result.stats["profile"]))
    print()
    print(result.summary())
    for metric in result.metrics:
        worst = result.worst_by(metric, by=("corner",), sense="min")
        best = result.worst_by(metric, by=("corner",), sense="max")
        row = "   ".join(f"{k[0]} [{lo:.4g}, {best[k]:.4g}]"
                         for k, lo in worst.items())
        print(f"  {metric} per corner: {row}")
    if args.csv:
        result.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        result.to_json(args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    import time

    from repro.optimize import RobustSettings, optimize_mic_amp
    from repro.pga.specs import MIC_AMP_SPEC

    if args.spec is not None:
        # Same request schema and validator as POST /v1/optimize.
        from repro.serve.validate import SpecValidationError, load_request_file

        try:
            request = load_request_file(args.spec, "optimize")
        except SpecValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        budget, seed = request["budget"], request["seed"]
        mode, robust = request["mode"], request["robust"]
    else:
        robust = None
        grid_given = (args.corners is not None or args.temps is not None
                      or args.trials is not None)
        if grid_given and not args.robust:
            print("error: --corners/--temps/--trials define the robust "
                  "evaluation grid; pass --robust to use them",
                  file=sys.stderr)
            return 2
        if args.robust:
            try:
                trials = args.trials or 0
                seeds = (None,) if trials == 0 else (None,) + tuple(range(trials))
                robust = RobustSettings(
                    corners=_parse_axis(args.corners or "tt,ss,ff", str),
                    temps_c=_parse_axis(args.temps or "25", float),
                    seeds=seeds,
                )
            except (KeyError, ValueError, TypeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        budget = 60 if args.quick else args.budget
        seed, mode = args.seed, args.mode
    store = None
    if args.store is not None:
        from repro.store import ResultStore

        store = ResultStore(args.store)

    grid = robust.n_units if robust else 1
    print(f"optimize: mic amp vs Table 1, budget {budget} evaluations "
          f"x {grid} unit(s) each, mode={mode}, seed={seed}")
    import contextlib

    from repro.obs import Recorder, active, format_profile

    with contextlib.ExitStack() as stack:
        if args.profile and active() is None:
            stack.enter_context(Recorder().activate())
        t0 = time.perf_counter()
        result = optimize_mic_amp(
            budget=budget, seed=seed, mode=mode,
            robust=robust, store=store,
            log=(None if args.no_progress else print),
        )
        wall = time.perf_counter() - t0
    print(f"done in {wall:.2f} s "
          f"({result.n_evaluations / wall:.1f} evaluations/s)\n")
    print(result.summary())
    if args.verbose and result.evaluator_stats is not None:
        s = result.evaluator_stats
        print(f"evaluator cache: {s['evaluations']} evaluations, "
              f"{s['hits']} hits / {s['misses']} misses "
              f"(hit rate {s['hit_rate']:.0%}), "
              f"store hits {s['store_hits']}, "
              f"simulated {s['simulated']}")
    if args.profile and result.evaluator_stats is not None \
            and "profile" in result.evaluator_stats:
        print()
        print(format_profile(result.evaluator_stats["profile"]))
    print()
    report = MIC_AMP_SPEC.check(result.best.metrics)
    print(report.format())
    from repro.pga.specs import Bound

    unsearched = [l.metric for l in MIC_AMP_SPEC.limits
                  if l.metric not in result.best.metrics
                  and l.bound is not Bound.INFO]
    if unsearched:
        print(f"(rows not searched per candidate — verify with "
              f"`repro table1`: {', '.join(unsearched)})")
    print()
    print(result.pareto.format())
    if args.pareto_csv:
        result.pareto.to_csv(args.pareto_csv)
        print(f"wrote {args.pareto_csv}")
    if args.pareto_json:
        result.pareto.to_json(args.pareto_json)
        print(f"wrote {args.pareto_json}")
    return 0 if (report.passed and result.best.feasible) else 1


def _cmd_store(args: argparse.Namespace) -> int:
    import time as _time

    from repro.store import open_store

    store = open_store(args.store)
    if args.store_cmd == "ls":
        rows = list(store.entries(kind=args.kind))
        for key, kind, nbytes, created, meta in rows[:args.limit]:
            age = _time.time() - created
            tag = (f"{meta.get('builder', '?')}" if meta else "?")
            print(f"{key[:16]}  {kind:<14} {nbytes:>7} B  "
                  f"{age:8.0f} s ago  {tag}")
        if len(rows) > args.limit:
            print(f"... ({len(rows) - args.limit} more; --limit to see them)")
        if not rows:
            print(f"(store at {store.root} is empty)")
        return 0
    if args.store_cmd == "stat":
        stat = store.stat()
        print(f"store {stat['root']}: {stat['entries']} entries, "
              f"{stat['bytes']} bytes")
        for kind, info in stat["kinds"].items():
            print(f"  {kind:<14} {info['entries']:>6} entries  "
                  f"{info['bytes']:>9} bytes")
        return 0
    if args.store_cmd == "gc":
        summary = store.gc()
        print(f"gc: removed {summary['removed_rows']} dangling index rows, "
              f"{summary['removed_files']} orphan files; "
              f"{summary['entries']} entries remain")
        return 0
    if args.store_cmd == "export":
        n = store.export(args.output, kind=args.kind)
        print(f"wrote {args.output} ({n} entries)")
        return 0
    if args.store_cmd == "verify":
        report = store.verify()
        print(f"verify: {report['checked']} checked, "
              f"{report['intact']} intact, "
              f"{report['quarantined']} quarantined, "
              f"{report['missing']} missing")
        return 0 if report["intact"] == report["checked"] else 1
    raise AssertionError(f"unhandled store command {args.store_cmd!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CharacterizationService, make_server
    from repro.store import open_store

    store = None if args.no_store else open_store(args.store)
    service = CharacterizationService(store=store, workers=args.workers,
                                      journal_dir=args.journal,
                                      max_jobs=args.max_jobs,
                                      job_timeout=args.job_timeout)
    server = make_server(args.host, args.port, service, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} "
          f"(store: {'disabled' if store is None else store.root}, "
          f"{args.workers} worker(s))",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", flush=True)
    finally:
        server.shutdown()
        service.stop()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        if args.client_cmd == "submit":
            with open(args.spec) as fh:
                try:
                    payload = _json.load(fh)
                except _json.JSONDecodeError as exc:
                    print(f"error: spec file {args.spec} is not valid "
                          f"JSON: {exc}", file=sys.stderr)
                    return 2
            view = client.submit(args.kind, payload)
            tag = " (warm store hit)" if view["warm"] else (
                " (coalesced)" if view["attached"] else "")
            print(f"job {view['id']} state {view['state']}{tag}")
            if args.wait and view["state"] not in ("done", "failed"):
                view = client.wait(view["id"], timeout=args.timeout)
                print(f"job {view['id']} state {view['state']}")
            if view["state"] == "failed":
                print(f"error: {view['error']}", file=sys.stderr)
                return 1
            if args.json is not None:
                if view["state"] != "done":
                    print("error: result not ready (pass --wait)",
                          file=sys.stderr)
                    return 1
                body = client.result_bytes(view["id"])
                with open(args.json, "wb") as fh:
                    fh.write(body)
                print(f"wrote {args.json}")
            return 0
        if args.client_cmd == "status":
            view = client.job(args.job)
            print(_json.dumps(view, indent=2))
            return 0 if view["state"] != "failed" else 1
        if args.client_cmd == "wait":
            view = client.wait(args.job, timeout=args.timeout)
            print(f"job {view['id']} state {view['state']}")
            if view["state"] == "failed":
                print(f"error: {view['error']}", file=sys.stderr)
            return 0 if view["state"] == "done" else 1
        if args.client_cmd == "result":
            if args.offset is not None or args.limit is not None:
                page = client.result_page(args.job, args.offset or 0,
                                          args.limit or 100)
                text = _json.dumps(page, indent=2) + "\n"
            else:
                text = client.result_bytes(args.job).decode("utf-8")
            if args.json is not None:
                with open(args.json, "w") as fh:
                    fh.write(text)
                print(f"wrote {args.json}")
            else:
                sys.stdout.write(text)
            return 0
        if args.client_cmd == "metrics":
            print(_json.dumps(client.metrics(), indent=2))
            return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled client command {args.client_cmd!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import format_slowest, format_tree, load_jsonl

    if args.url is not None:
        from repro.serve import ServeClient, ServeError

        client = ServeClient(args.url)
        try:
            doc = client.job_trace(args.source)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        spans = doc.get("spans", [])
    else:
        try:
            spans = [r for r in load_jsonl(args.source)
                     if r.get("kind", "span") == "span"]
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except _json.JSONDecodeError as exc:
            print(f"error: {args.source} is not a span JSONL file: {exc}",
                  file=sys.stderr)
            return 2
    if args.trace_id is not None:
        spans = [s for s in spans if s.get("trace_id") == args.trace_id]
    if args.json:
        print(_json.dumps(spans, indent=2))
        return 0
    if not spans:
        print("(no spans)")
        return 0
    traces = {s.get("trace_id") for s in spans}
    print(f"{len(spans)} span(s) across {len(traces)} trace(s)")
    print(format_tree(spans))
    if args.top:
        print()
        print(format_slowest(spans, top=args.top))
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.obs.doctor import format_report, run_doctor

    checks, code = run_doctor(store=args.store, url=args.url,
                              events=args.events)
    for line in format_report(checks, code):
        print(line)
    return code


def _cmd_ingest(args: argparse.Namespace) -> int:
    import os

    from repro.ingest import IngestError, apply_binding, compile_deck

    try:
        with open(args.deck) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = os.path.basename(args.deck)
    try:
        compiled = compile_deck(text, name=name, top=args.top)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    circuit = compiled.circuit

    if args.canonical:
        sys.stdout.write(compiled.canonical())
        return 0

    bound = None
    if args.binding is not None:
        try:
            with open(args.binding) as fh:
                binding_text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            bound = apply_binding(circuit, binding_text)
        except IngestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if (args.op or args.ac) and bound is None:
        print("error: --op/--ac need --binding FILE (ports, outputs, supply)",
              file=sys.stderr)
        return 2

    counts: dict[str, int] = {}
    for el in circuit:
        kind = type(el).__name__
        counts[kind] = counts.get(kind, 0) + 1
    inventory = ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
    if not args.validate:
        print(f"{name}: top {compiled.top!r}, {len(circuit.nodes())} nodes, "
              f"{sum(counts.values())} elements ({inventory})")
    if not (args.op or args.ac):
        return 0

    from repro.spice.dc import ConvergenceError, dc_operating_point

    try:
        op = dc_operating_point(circuit)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_tag = (bound.out_p if bound.out_n in ("gnd", "0")
               else f"{bound.out_p}-{bound.out_n}")
    if args.op:
        print(f"dc: converged via {op.strategy} in {op.iterations} iterations")
        print(f"  v({out_tag}) = {op.vdiff(bound.out_p, bound.out_n):.6g} V")
        if bound.supply_source is not None:
            print(f"  i({bound.supply_source}) = "
                  f"{op.supply_current(bound.supply_source) * 1e3:.6g} mA")
    if args.ac:
        import numpy as np

        if not bound.input_sources:
            print("error: --ac needs a binding port with a nonzero 'ac'",
                  file=sys.stderr)
            return 2
        freqs = np.logspace(1, 8, 8 * 4 + 1)
        tf = op.small_signal().transfer(freqs, bound.out_p, bound.out_n)
        mag_db = 20.0 * np.log10(np.maximum(np.abs(tf), 1e-300))
        k1k = int(np.argmin(np.abs(freqs - 1e3)))
        print(f"ac: gain({out_tag}) at 1 kHz = {mag_db[k1k]:.2f} dB")
        for k in range(0, freqs.size, 4):
            print(f"  {freqs[k]:12.4g} Hz   {mag_db[k]:8.2f} dB")
    return 0


_BLOCKS = ("micamp", "powerbuffer", "bandgap", "bias", "opamp")


def _build_block(name: str):
    if name == "micamp":
        from repro.circuits.micamp import build_mic_amp

        return build_mic_amp(CMOS12, gain_code=5).circuit
    if name == "powerbuffer":
        from repro.circuits.powerbuffer import build_power_buffer

        return build_power_buffer(CMOS12, feedback="inverting",
                                  load="resistive").circuit
    if name == "bandgap":
        from repro.circuits.bandgap import build_bandgap

        return build_bandgap(CMOS12, r2_trim=1.2).circuit
    if name == "bias":
        from repro.circuits.bias import build_bias_circuit

        return build_bias_circuit(CMOS12).circuit
    if name == "opamp":
        from repro.circuits.opamp import build_modulator_opamp

        return build_modulator_opamp(CMOS12).circuit
    raise ValueError(f"unknown block {name!r}; choose from {_BLOCKS}")


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.spice.export import export_netlist

    circuit = _build_block(args.block)
    deck = export_netlist(circuit)
    if args.output == "-":
        sys.stdout.write(deck)
    else:
        with open(args.output, "w") as fh:
            fh.write(deck)
        print(f"wrote {args.output} ({len(deck.splitlines())} lines)")
    return 0


def _add_table1(sub) -> None:
    p1 = sub.add_parser("table1", help="characterise the microphone amplifier")
    p1.add_argument("--quick", action="store_true")
    p1.set_defaults(func=_cmd_table1)


def _add_table2(sub) -> None:
    p2 = sub.add_parser("table2", help="characterise the power buffer")
    p2.add_argument("--quick", action="store_true")
    p2.set_defaults(func=_cmd_table2)


def _add_noise(sub) -> None:
    pn = sub.add_parser("noise", help="Fig. 7 noise spectrum")
    pn.add_argument("--code", type=int, default=5, choices=range(6))
    pn.set_defaults(func=_cmd_noise)


def _add_gains(sub) -> None:
    pg = sub.add_parser("gains", help="Fig. 5 gain table")
    pg.set_defaults(func=_cmd_gains)


def _add_opamp(sub) -> None:
    po = sub.add_parser("opamp", help="modulator opamp figures of merit")
    po.set_defaults(func=_cmd_opamp)


def _add_campaign(sub) -> None:
    pc = sub.add_parser(
        "campaign",
        help="declarative PVT x mismatch x gain-code characterization sweep",
        description="Expand a corner/temperature/supply/seed/gain-code "
                    "cross-product into work units, execute them in-process "
                    "(structure-sharing groups through the tensor engine) "
                    "and print reduced statistics.",
    )
    pc.add_argument("--builder", default="micamp",
                    help="registered circuit builder (default: micamp)")
    pc.add_argument("--corners", default="all",
                    help="comma list of corners, or 'all' (default)")
    pc.add_argument("--temps", default="-20,25,85",
                    help="comma list of temperatures [degC] "
                         "(use --temps=-20,25,85 for negative values)")
    pc.add_argument("--supplies", default="nominal",
                    help="comma list of total supply voltages, 'nominal' "
                         "entries keep the technology default")
    pc.add_argument("--trials", type=int, default=0,
                    help="number of mismatch seeds 0..N-1 (0 = nominal devices)")
    pc.add_argument("--seeds", default=None,
                    help="explicit comma list of mismatch seeds (overrides --trials)")
    pc.add_argument("--codes", default="nominal",
                    help="comma list of gain codes; 'nominal' = builder default")
    pc.add_argument("--measure", default="offset_v,iq_ma",
                    help="comma list of registered measurements")
    pc.add_argument("--csv", default=None, help="write the full table as CSV")
    pc.add_argument("--json", default=None, help="write the full table as JSON")
    pc.add_argument("--store", default=None, metavar="ROOT",
                    help="persistent result store root: reuse cached units, "
                         "execute only missing ones (byte-identical merge)")
    pc.add_argument("--spec", default=None, metavar="FILE",
                    help="campaign request JSON file (serve-layer schema; "
                         "overrides the axis flags)")
    pc.add_argument("--profile", action="store_true",
                    help="print the engine profile (timed phases, Newton "
                         "iterations, LU calls, store I/O) after the run")
    pc.add_argument("--trace-out", default=None, metavar="FILE",
                    help="export the run's spans and events as JSONL "
                         "(inspect with `repro trace FILE`)")
    pc.set_defaults(func=_cmd_campaign)


def _add_optimize(sub) -> None:
    po2 = sub.add_parser(
        "optimize",
        help="spec-driven sizing search over the Sec. 3.2 design space",
        description="Search the mic-amp sizing space (budget splits, "
                    "currents, lengths, gain string) for a minimum "
                    "current/area design meeting the Table 1 spec, with "
                    "a noise/IQ/area Pareto front as a by-product.",
    )
    po2.add_argument("--budget", type=int, default=150,
                     help="candidate-evaluation budget (default: 150)")
    po2.add_argument("--seed", type=int, default=2026,
                     help="optimizer RNG seed (runs are deterministic per seed)")
    po2.add_argument("--mode", choices=("feasibility", "penalty"),
                     default="feasibility",
                     help="constraint handling (default: feasibility-first)")
    po2.add_argument("--robust", action="store_true",
                     help="score candidates worst-case over a PVT campaign "
                          "instead of the typical point")
    po2.add_argument("--corners", default=None,
                     help="robust-mode corner list (default: tt,ss,ff; "
                          "requires --robust)")
    po2.add_argument("--temps", default=None,
                     help="robust-mode temperature list [degC] "
                          "(default: 25; requires --robust)")
    po2.add_argument("--trials", type=int, default=None,
                     help="robust-mode mismatch seeds on top of nominal "
                          "(requires --robust)")
    po2.add_argument("--quick", action="store_true",
                     help="60-evaluation smoke run")
    po2.add_argument("--no-progress", action="store_true",
                     help="suppress per-improvement progress lines")
    po2.add_argument("--pareto-csv", default=None,
                     help="write the Pareto front as CSV")
    po2.add_argument("--pareto-json", default=None,
                     help="write the Pareto front as JSON")
    po2.add_argument("--store", default=None, metavar="ROOT",
                     help="persistent evaluation store root: resume "
                          "measured candidates across runs/processes")
    po2.add_argument("--verbose", action="store_true",
                     help="print evaluator cache statistics (memo + store)")
    po2.add_argument("--profile", action="store_true",
                     help="print the engine profile accumulated over "
                          "every candidate evaluation")
    po2.add_argument("--spec", default=None, metavar="FILE",
                     help="optimize request JSON file (serve-layer schema; "
                          "overrides --budget/--seed/--mode/--robust)")
    po2.set_defaults(func=_cmd_optimize)


def _add_store(sub) -> None:
    pst = sub.add_parser(
        "store",
        help="inspect / maintain a persistent result store",
        description="List, summarise, garbage-collect or export the "
                    "content-addressed result store used by --store "
                    "campaign and optimize runs.",
    )
    pstsub = pst.add_subparsers(dest="store_cmd", required=True)
    pls = pstsub.add_parser("ls", help="list entries, newest first")
    pls.add_argument("--kind", default=None,
                     help="filter by kind (campaign-unit, design-eval)")
    pls.add_argument("--limit", type=int, default=20,
                     help="max rows to print (default: 20)")
    pstat = pstsub.add_parser("stat", help="entry/byte totals per kind")
    pgc = pstsub.add_parser(
        "gc", help="drop rows and files left by the file-layout store")
    pexp = pstsub.add_parser("export", help="dump entries as one JSON file")
    pexp.add_argument("output", help="output JSON path")
    pexp.add_argument("--kind", default=None, help="filter by kind")
    pver = pstsub.add_parser(
        "verify",
        help="re-hash every payload; quarantine corrupt/truncated ones "
             "(exit 1 if anything was unhealthy)")
    for sp in (pls, pstat, pgc, pexp, pver):
        sp.add_argument("--store", default=None, metavar="ROOT",
                        help="store root (default: $REPRO_STORE or "
                             "~/.cache/repro-store)")
        sp.set_defaults(func=_cmd_store)


def _add_serve(sub) -> None:
    psv = sub.add_parser(
        "serve",
        help="run the characterization service (HTTP/JSON API)",
        description="Serve campaigns and sizing searches over HTTP: job "
                    "queue + worker pool, request coalescing of identical "
                    "in-flight submissions, and store-backed warm hits "
                    "that never touch the engine.",
    )
    psv.add_argument("--host", default="127.0.0.1")
    psv.add_argument("--port", type=int, default=8765,
                     help="listen port (0 = pick a free one; default: 8765)")
    psv.add_argument("--workers", type=int, default=2,
                     help="service worker threads (default: 2)")
    psv.add_argument("--job-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-job wall-clock budget; overruns fail the "
                          "job instead of wedging a worker (default: none)")
    psv.add_argument("--store", default=None, metavar="ROOT",
                     help="result store root (default: $REPRO_STORE or "
                          "~/.cache/repro-store)")
    psv.add_argument("--no-store", action="store_true",
                     help="serve without a store (no warm hits)")
    psv.add_argument("--journal", default=None, metavar="DIR",
                     help="job journal directory (jobs survive restarts)")
    psv.add_argument("--max-jobs", type=int, default=1024,
                     help="retained job cap; oldest finished jobs are "
                          "evicted past it (default: 1024)")
    psv.add_argument("--verbose", action="store_true",
                     help="log every HTTP request")
    psv.set_defaults(func=_cmd_serve)


def _add_client(sub) -> None:
    pcl = sub.add_parser(
        "client",
        help="talk to a running `repro serve` endpoint",
        description="Submit request files, poll job status and fetch "
                    "results from a characterization service.",
    )
    pclsub = pcl.add_subparsers(dest="client_cmd", required=True)
    psub = pclsub.add_parser("submit", help="submit a request JSON file")
    psub.add_argument("spec", help="request JSON file (serve-layer schema)")
    psub.add_argument("--kind", choices=("campaign", "optimize"),
                      default="campaign")
    psub.add_argument("--wait", action="store_true",
                      help="poll until the job is terminal")
    psub.add_argument("--json", default=None, metavar="PATH",
                      help="write the result document (implies --wait "
                           "completed successfully)")
    pstat2 = pclsub.add_parser("status", help="print one job's status view")
    pstat2.add_argument("job")
    pwait = pclsub.add_parser("wait", help="block until a job is terminal")
    pwait.add_argument("job")
    pres = pclsub.add_parser("result", help="fetch a job's result")
    pres.add_argument("job")
    pres.add_argument("--offset", type=int, default=None,
                      help="paginate: first row of the page")
    pres.add_argument("--limit", type=int, default=None,
                      help="paginate: rows per page")
    pres.add_argument("--json", default=None, metavar="PATH",
                      help="write to a file instead of stdout")
    pmet = pclsub.add_parser("metrics", help="print service counters")
    for sp in (psub, pstat2, pwait, pres, pmet):
        sp.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL (default: %(default)s)")
        sp.add_argument("--timeout", type=float, default=600.0,
                        help="wait timeout in seconds (default: 600)")
        sp.set_defaults(func=_cmd_client)


def _add_trace(sub) -> None:
    pt = sub.add_parser(
        "trace",
        help="inspect a span trace (JSONL export or a served job)",
        description="Render the span tree of a trace: from a JSONL file "
                    "written by `repro campaign --trace-out` (or "
                    "REPRO_OBS=1:export=FILE; event records in it are "
                    "skipped), or fetched from a running service's "
                    "GET /v1/jobs/<id>/trace.",
    )
    pt.add_argument("source",
                    help="span JSONL file, or a job id when --url is given")
    pt.add_argument("--url", default=None, metavar="URL",
                    help="fetch the trace of job SOURCE from this serve "
                         "endpoint instead of reading a file")
    pt.add_argument("--trace-id", default=None,
                    help="show only one trace id")
    pt.add_argument("--json", action="store_true",
                    help="print the raw span dicts instead of the tree")
    pt.add_argument("--top", type=int, default=0, metavar="N",
                    help="also list the N slowest spans by self-time "
                         "below the tree")
    pt.set_defaults(func=_cmd_trace)


def _add_doctor(sub) -> None:
    pd = sub.add_parser(
        "doctor",
        help="run stack self-checks and print a pass/warn/fail report",
        description="Probe each layer like an operator would: DC-solve "
                    "the bias sanity circuit, read-verify a result "
                    "store, hit a running service's /healthz and "
                    "triage the event log.  Exit 0 healthy, 1 warnings, "
                    "2 failures.",
    )
    pd.add_argument("--store", default=None, metavar="DIR",
                    help="result-store root to read-verify")
    pd.add_argument("--url", default=None, metavar="URL",
                    help="running service base URL (checks /healthz)")
    pd.add_argument("--events", default=None, metavar="FILE",
                    help="event-log JSONL export to triage")
    pd.set_defaults(func=_cmd_doctor)


def _add_ingest(sub) -> None:
    pi = sub.add_parser(
        "ingest",
        help="compile an external SPICE deck (parse / op / ac)",
        description="Parse a SPICE netlist through repro.ingest, flatten "
                    "its subcircuit hierarchy and optionally bind ports "
                    "(supplies, stimulus, outputs) to run DC and AC "
                    "analyses on the compiled circuit.",
    )
    pi.add_argument("deck", help="SPICE netlist file")
    pi.add_argument("--top", default=None,
                    help="subcircuit to elaborate as the top cell "
                         "(default: top-level cards, or the only .subckt)")
    pi.add_argument("--binding", default=None, metavar="FILE",
                    help="port-binding JSON (ports/outputs/supply/loads)")
    pi.add_argument("--validate", action="store_true",
                    help="parse and elaborate only, no output on success")
    pi.add_argument("--op", action="store_true",
                    help="solve and print the DC operating point "
                         "(requires --binding)")
    pi.add_argument("--ac", action="store_true",
                    help="print the small-signal gain sweep "
                         "(requires --binding with an 'ac' port)")
    pi.add_argument("--canonical", action="store_true",
                    help="print the canonical flattened deck (the store-key "
                         "form) and exit")
    pi.set_defaults(func=_cmd_ingest)


def _add_export(sub) -> None:
    pe = sub.add_parser("export", help="write a block's SPICE deck")
    pe.add_argument("block", choices=_BLOCKS)
    pe.add_argument("output", help="output file, or - for stdout")
    pe.set_defaults(func=_cmd_export)

#: Subcommand -> the function that adds its parser, in ``--help`` order.
_COMMANDS = {
    "table1": _add_table1,
    "table2": _add_table2,
    "noise": _add_noise,
    "gains": _add_gains,
    "opamp": _add_opamp,
    "campaign": _add_campaign,
    "optimize": _add_optimize,
    "store": _add_store,
    "serve": _add_serve,
    "client": _add_client,
    "trace": _add_trace,
    "doctor": _add_doctor,
    "ingest": _add_ingest,
    "export": _add_export,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    ``command`` builds that one subcommand's parser only, which is what
    :func:`main` does for a known command; ``None`` builds all of them.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the 1995 low-voltage FD PGA paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command is None or name == command:
            add(sub)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line the way :func:`main` does.

    A known command builds only its own subparser.  An unknown or
    missing command, a top-level ``--help`` and arguments the subcommand
    does not recognise go to the full parser, so every help and error
    text is the full parser's.
    """
    # Let "--temps -20,25,85"-style negative comma lists through argparse,
    # which would otherwise read the value as an option string.
    fixed: list[str] = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if arg in ("--temps", "--supplies", "--seeds") and \
                nxt.startswith("-") and nxt[1:2].isdigit():
            fixed.append(f"{arg}={nxt}")
            skip = True
        else:
            fixed.append(arg)
    if fixed and fixed[0] in _COMMANDS:
        args, extras = build_parser(fixed[0]).parse_known_args(fixed)
        if not extras:
            return args
    return build_parser().parse_args(fixed)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
