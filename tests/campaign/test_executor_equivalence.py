"""One execution path against the per-unit oracle, every builder.

``run_campaign`` has a single path: structure groups of at least
``MIN_BATCH_UNITS`` units run through the tensor engine (stamping,
lockstep Newton and the AC probes re-implemented as unit-tensor
operations), everything else through ``run_unit``.  Neither choice is
allowed to move a single bit: for every registered builder, plus an
ingested deck, the export must equal the one assembled from
``run_chunk`` — the plain per-unit loop — byte for byte.  JSON bytes are
the strictest practical surface: they capture values, key order, row
order and float repr in one comparison.

Recorder counters prove which path ran: ``batch.units_stamped`` counts
units stamped into a tensor, ``campaign.batch_group_fallbacks`` counts
tensor groups that fell back to ``run_unit``.
"""

import pathlib

import pytest

from repro.campaign import CampaignSpec, run_campaign, run_chunk
from repro.campaign import batchrun
from repro.campaign.result import CampaignResult
from repro.obs import Recorder

# One spec per registered builder, measurements chosen to exercise every
# batched implementation (DC reads, branch currents, gain, PSRR/CMRR
# two-column solves) at least once across the matrix.
BUILDER_SPECS = {
    "micamp": CampaignSpec(
        builder="micamp", corners=("tt", "ss"), temps_c=(-20.0, 85.0),
        seeds=(0, 1), gain_codes=(0, 5),
        measurements=("offset_v", "iq_ma", "gain_1khz_db",
                      "psrr_1khz_db", "cmrr_1khz_db"),
    ),
    "powerbuffer": CampaignSpec(
        builder="powerbuffer", corners=("tt", "ff"), temps_c=(25.0, 85.0),
        seeds=(0, 1), gain_codes=(None,),
        measurements=("offset_v", "iq_ma", "gain_1khz_db",
                      "psrr_1khz_db", "cmrr_1khz_db"),
    ),
    "bias": CampaignSpec(
        builder="bias", corners=("tt", "ss"), temps_c=(-20.0, 25.0, 85.0),
        seeds=(0, 1), gain_codes=(None,),
        measurements=("bias_current_ua", "offset_v", "iq_ma"),
    ),
    "bandgap": CampaignSpec(
        builder="bandgap", corners=("tt", "fs"), temps_c=(-20.0, 25.0, 85.0),
        seeds=(0, 1), gain_codes=(None,),
        measurements=("vref_mv", "offset_v", "iq_ma"),
    ),
}


def oracle_json(spec: CampaignSpec) -> str:
    """The reference export: every unit through the per-unit path."""
    units = spec.expand()
    return CampaignResult.from_units(spec, units,
                                     run_chunk(spec, units)).to_json()


def profiled_run(spec: CampaignSpec):
    rec = Recorder()
    with rec.activate():
        result = run_campaign(spec)
    return result, rec.profile()["counts"]


@pytest.fixture(scope="module")
def oracle():
    return {name: oracle_json(spec) for name, spec in BUILDER_SPECS.items()}


class TestBatchedEquivalence:
    @pytest.mark.parametrize("builder", sorted(BUILDER_SPECS))
    def test_batched_byte_identical(self, builder, oracle):
        spec = BUILDER_SPECS[builder]
        result, counts = profiled_run(spec)
        assert result.to_json() == oracle[builder]
        # The comparison only means something if the tensor path did the
        # work: every unit must have been stamped, no group recomputed
        # through the per-unit fallback.
        assert counts["batch.units_stamped"] == spec.n_units
        assert "campaign.batch_group_fallbacks" not in counts

    def test_batched_with_serial_only_measurements(self):
        """noise_voice is a plain per-unit measurement: it must run
        serially on the batch's bit-identical operating point, beside
        the batched offset_v and area_mm2 reads, and still match the
        reference export byte for byte."""
        spec = CampaignSpec(
            builder="micamp", corners=("tt",), temps_c=(25.0, 85.0),
            seeds=(0, 1), gain_codes=(5,),
            measurements=("offset_v", "noise_voice", "area_mm2"),
        )
        result, counts = profiled_run(spec)
        assert result.to_json() == oracle_json(spec)
        assert counts["batch.units_stamped"] == spec.n_units

    def test_batched_chunk_and_batch_size_invariance(self, oracle,
                                                     monkeypatch):
        """Batch size is a scheduling knob; it may not alter a byte.
        With the group-size threshold lowered to 1, even 1- and 2-unit
        groups take the tensor path."""
        spec = BUILDER_SPECS["micamp"]
        units = spec.expand()
        monkeypatch.setattr(batchrun, "MIN_BATCH_UNITS", 1)
        for batch_size in (1, 2, 64):
            rec = Recorder()
            with rec.activate():
                records = batchrun.run_chunk_batched(spec, units,
                                                     batch_size=batch_size)
            result = CampaignResult.from_units(spec, units, records)
            assert result.to_json() == oracle["micamp"]
            counts = rec.profile()["counts"]
            assert counts["batch.units_stamped"] == spec.n_units
            assert counts["campaign.batch_groups"] == \
                -(-spec.n_units // batch_size)


class TestSelectionRule:
    """Groups smaller than MIN_BATCH_UNITS run ``run_unit``; the rest
    stamp tensors — decided by the input alone."""

    @staticmethod
    def _spec(n_seeds: int) -> CampaignSpec:
        return CampaignSpec(
            builder="micamp", corners=("tt",), temps_c=(25.0,),
            seeds=tuple(range(n_seeds)), gain_codes=(5,),
            measurements=("offset_v", "iq_ma", "gain_1khz_db"),
        )

    @pytest.mark.parametrize("n_units", [1, 2])
    def test_small_groups_run_per_unit(self, n_units):
        spec = self._spec(n_units)
        result, counts = profiled_run(spec)
        assert result.to_json() == oracle_json(spec)
        assert counts.get("batch.units_stamped", 0) == 0
        assert counts["campaign.units_run"] == n_units

    def test_three_unit_group_stamps(self):
        assert batchrun.MIN_BATCH_UNITS == 3
        spec = self._spec(3)
        result, counts = profiled_run(spec)
        assert result.to_json() == oracle_json(spec)
        assert counts["batch.units_stamped"] == 3
        assert "campaign.units_run" not in counts


class TestRegisteredMeasurement:
    """A :class:`UnitMeasurement` registered after import is resolved per
    group, so it takes the tensor path like a built-in one."""

    def test_runs_batched_and_matches_oracle(self):
        import math

        from repro.analysis.psrr import Probe
        from repro.campaign.measurements import (
            MEASUREMENTS,
            UnitMeasurement,
            register_measurement,
        )

        per_unit = []

        class Spy(UnitMeasurement):
            """Counts the per-unit calls (``run_unit`` and fallbacks)."""

            def __call__(self, rt):
                per_unit.append(rt.unit.index)
                return super().__call__(rt)

        def probe(m):
            return Probe(10e3, ({},), m.built.out_p, m.built.out_n)

        def gain_10khz(m, values):
            return {"gain_10khz_db": 20.0 * math.log10(abs(values[0]))}

        name = "test_gain_10khz_db"
        register_measurement(name)(Spy(gain_10khz, probe))
        try:
            spec = CampaignSpec(
                builder="micamp", corners=("tt", "ss"), temps_c=(25.0, 85.0),
                gain_codes=(5,), measurements=("iq_ma", name))
            result, counts = profiled_run(spec)
            assert per_unit == []
            assert counts["campaign.batched_units"] == spec.n_units
            assert "campaign.batch_group_fallbacks" not in counts
            assert result.to_json() == oracle_json(spec)
            assert len(per_unit) == spec.n_units      # the oracle's calls
        finally:
            MEASUREMENTS.pop(name)


class TestProgress:
    def test_raising_progress_stops_the_run_after_one_group(self):
        """``progress`` fires outside the group's fallback handler: an
        exception it raises (a serve deadline) propagates instead of
        re-running the group per unit, and no later group runs."""
        spec = CampaignSpec(
            builder="bias", corners=("tt", "ff", "ss", "fs", "sf"),
            temps_c=tuple(float(t) for t in range(-20, 110, 10)),
            measurements=("bias_current_ua",),
        )
        assert spec.n_units > batchrun.DEFAULT_BATCH_SIZE

        class Stop(Exception):
            pass

        def progress(done, total):
            raise Stop(f"{done}/{total}")

        rec = Recorder()
        with rec.activate(), pytest.raises(Stop):
            run_campaign(spec, progress=progress)
        counts = rec.profile()["counts"]
        assert counts["campaign.batch_groups"] == 1
        assert "campaign.batch_group_fallbacks" not in counts


class TestSmallSignalRejection:
    """A unit whose batched 1 kHz solve fails the scaled-residual check
    is re-measured through the serial per-unit path; the export does not
    move.  Forced by shutting the gate for every unit."""

    def test_rejected_units_are_remeasured_serially(self, oracle, monkeypatch):
        import repro.spice.linsolve as linsolve

        spec = BUILDER_SPECS["powerbuffer"]
        monkeypatch.setattr(linsolve, "SPECTRAL_RESIDUAL_TOL", -1.0)
        rec = Recorder()
        with rec.activate():
            result = run_campaign(spec)
        assert result.to_json() == oracle["powerbuffer"]
        assert rec.profile()["counts"]["batch.units_stamped"] == spec.n_units
        fallbacks = [e["fields"] for e in rec.events(name="campaign.unit_fallback")]
        assert len(fallbacks) == 3 * spec.n_units
        assert {f["measurement"] for f in fallbacks} == {
            "gain_1khz_db", "psrr_1khz_db", "cmrr_1khz_db"}
        assert {f["reason"] for f in fallbacks} == {
            "batched small-signal residual rejection"}


class TestErrorPathEquivalence:
    """A measurement that cannot run on a builder raises the per-unit
    oracle's exception on the tensor path too: the group's probe or read
    raises, the group falls back to ``run_unit``, which raises it."""

    CASES = {
        "psrr-without-inputs": CampaignSpec(
            builder="bias", corners=("tt",), temps_c=(-20.0, 25.0, 85.0, 100.0),
            measurements=("psrr_1khz_db",)),
        "cmrr-without-inputs": CampaignSpec(
            builder="bandgap", corners=("tt",), temps_c=(-20.0, 25.0, 85.0, 100.0),
            measurements=("cmrr_1khz_db",)),
        "bias-current-without-probes": CampaignSpec(
            builder="micamp", corners=("tt", "ss"), temps_c=(25.0, 85.0),
            seeds=(0, 1), gain_codes=(5,), measurements=("bias_current_ua",)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_exception_as_oracle(self, case):
        spec = self.CASES[case]
        assert spec.n_units >= batchrun.MIN_BATCH_UNITS
        with pytest.raises(Exception) as oracle_exc:
            run_chunk(spec, spec.expand())
        rec = Recorder()
        with rec.activate(), pytest.raises(Exception) as batched_exc:
            run_campaign(spec)
        assert type(batched_exc.value) is type(oracle_exc.value)
        assert str(batched_exc.value) == str(oracle_exc.value)
        assert rec.profile()["counts"]["batch.units_stamped"] > 0


def _ingested_spec() -> CampaignSpec:
    """An external-deck campaign (the `ingested` builder is the one
    registered builder with no batched implementation)."""
    from repro.ingest import canonical_binding, canonicalize_deck

    deck_dir = pathlib.Path(__file__).parent.parent / "ingest" / "decks"
    return CampaignSpec(
        builder="ingested", corners=("tt", "ss"), temps_c=(25.0, 85.0),
        seeds=(None,), gain_codes=(None,),
        measurements=("offset_v", "iq_ma", "gain_1khz_db"),
        builder_kwargs={
            "netlist": canonicalize_deck(
                (deck_dir / "ota_5t.sp").read_text(), name="netlist"),
            "binding": canonical_binding(
                (deck_dir / "ota_5t.binding.json").read_text()),
        },
    )


class TestIngestedEquivalence:
    """The ingested builder is flagged non-batchable, so every unit goes
    straight to ``run_unit`` — silently: a healthy netlist run is not a
    degradation and must log no fallback event."""

    def test_batched_falls_back_per_unit(self):
        spec = _ingested_spec()
        rec = Recorder()
        with rec.activate():
            result = run_campaign(spec)
        assert result.to_json() == oracle_json(spec)
        assert rec.events(name="campaign.batch_group_fallback") == []
        assert rec.events(name="campaign.unit_fallback") == []
        counts = rec.profile()["counts"]
        assert counts.get("batch.units_stamped", 0) == 0
        assert counts["campaign.units_run"] == spec.n_units
        assert result.stats["solver_health"]["n_units"] == spec.n_units
