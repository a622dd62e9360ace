"""Property tests for the rejection-feedback memory and shape fingerprints.

Three invariants the adaptive region selection stands on:

* **decay monotonicity** — without new records, a shape's penalty can only
  fall as the decay clock advances (and never below zero);
* **fingerprint stability** — renaming every process and channel of an
  application (consistently) leaves its shape fingerprint unchanged, so
  the memory generalises across same-shaped arrivals;
* **rollback bit-identity** — any sequence of records/ticks/penalty reads
  performed inside an aborted transaction leaves the memory digest exactly
  as it was, including when an inner committed transaction folds into the
  aborted outer one.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.library import ImplementationLibrary
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.graph import KPNGraph
from repro.spatialmapper.region_score import RejectionMemory, shape_fingerprint
from repro.workloads.synthetic import SyntheticConfig, generate_application

REGIONS = ("r0", "r1", "r2")
SHAPES = (("a",), ("b",), ("c",))

records = st.lists(
    st.tuples(
        st.sampled_from(REGIONS),
        st.sampled_from(SHAPES),
        st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    ),
    max_size=12,
)

#: One memory operation: ("record", region, shape, weight) | ("tick",) |
#: ("penalty", region, shape).
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.sampled_from(REGIONS),
            st.sampled_from(SHAPES),
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        ),
        st.tuples(st.just("tick")),
        st.tuples(st.just("penalty"), st.sampled_from(REGIONS), st.sampled_from(SHAPES)),
    ),
    max_size=20,
)


def apply_operations(memory, ops):
    for op in ops:
        if op[0] == "record":
            memory.record(op[1], op[2], weight=op[3])
        elif op[0] == "tick":
            memory.tick()
        else:
            memory.penalty(op[1], op[2])


class TestDecayMonotonicity:
    @given(
        entries=records,
        decay=st.floats(min_value=0.2, max_value=0.9),
        ticks=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_penalty_never_increases_without_new_records(self, entries, decay, ticks):
        memory = RejectionMemory(decay=decay, min_weight=1e-6)
        for region, shape, weight in entries:
            memory.record(region, shape, weight=weight)
        penalties = {
            (region, shape): memory.penalty(region, shape)
            for region in REGIONS
            for shape in SHAPES
        }
        for _ in range(ticks):
            memory.tick()
            for key in penalties:
                decayed = memory.penalty(*key)
                assert 0.0 <= decayed <= penalties[key] + 1e-12
                penalties[key] = decayed

    @given(entries=records, decay=st.floats(min_value=0.2, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_recording_only_raises_the_recorded_key(self, entries, decay):
        memory = RejectionMemory(decay=decay, min_weight=1e-6)
        for region, shape, weight in entries:
            before = memory.penalty(region, shape)
            others = {
                key: memory.penalty(*key)
                for key in ((r, s) for r in REGIONS for s in SHAPES)
                if key != (region, shape)
            }
            memory.record(region, shape, weight=weight)
            assert memory.penalty(region, shape) >= before + weight - 1e-9
            for key, value in others.items():
                assert memory.penalty(*key) == value


class TestShapeFingerprintStability:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        stages=st.integers(min_value=1, max_value=5),
        branches=st.integers(min_value=1, max_value=3),
        suffix=st.sampled_from(["_x", "_longer_suffix", "2"]),
        prefix=st.sampled_from(["", "zz_"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_invariant_under_consistent_renaming(
        self, seed, stages, branches, suffix, prefix
    ):
        config = SyntheticConfig(stages=stages, parallel_branches=branches)
        app = generate_application(seed, config, name=f"app{seed}")
        mapping = {
            p.name: f"{prefix}{p.name}{suffix}" for p in app.als.kpn.processes
        }
        kpn = KPNGraph(f"renamed{seed}")
        for process in app.als.kpn.processes:
            kpn.add_process(dataclasses.replace(process, name=mapping[process.name]))
        for channel in app.als.kpn.channels:
            kpn.add_channel(
                dataclasses.replace(
                    channel,
                    name=f"{prefix}{channel.name}{suffix}",
                    source=mapping[channel.source],
                    target=mapping[channel.target],
                )
            )
        library = ImplementationLibrary(
            dataclasses.replace(
                implementation, process=mapping[implementation.process], name=""
            )
            for implementation in app.library.implementations()
        )
        renamed = ApplicationLevelSpec(kpn=kpn, qos=app.als.qos, name=f"renamed{seed}")
        assert shape_fingerprint(app.als, app.library) == shape_fingerprint(
            renamed, library
        )


class TestRollbackBitIdentity:
    @given(prefix=operations, inside=operations, decay=st.floats(min_value=0.3, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_aborted_transaction_leaves_no_trace(self, prefix, inside, decay):
        memory = RejectionMemory(decay=decay)
        apply_operations(memory, prefix)
        before = memory.fingerprint()
        try:
            with memory.journal.transaction():
                apply_operations(memory, inside)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert memory.fingerprint() == before

    @given(
        prefix=operations,
        inner=operations,
        outer=operations,
        decay=st.floats(min_value=0.3, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_inner_commit_folds_into_aborted_outer(self, prefix, inner, outer, decay):
        memory = RejectionMemory(decay=decay)
        apply_operations(memory, prefix)
        before = memory.fingerprint()
        try:
            with memory.journal.transaction():
                apply_operations(memory, outer)
                with memory.journal.transaction():
                    apply_operations(memory, inner)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert memory.fingerprint() == before

    @given(prefix=operations, inside=operations, decay=st.floats(min_value=0.3, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_committed_transaction_equals_unscoped_application(self, prefix, inside, decay):
        transactional = RejectionMemory(decay=decay)
        plain = RejectionMemory(decay=decay)
        for memory in (transactional, plain):
            apply_operations(memory, prefix)
        with transactional.journal.transaction():
            apply_operations(transactional, inside)
        apply_operations(plain, inside)
        assert transactional.fingerprint() == plain.fingerprint()
