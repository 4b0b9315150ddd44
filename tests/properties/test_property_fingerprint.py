"""Property: job fingerprints do not depend on the fingerprint memo.

:func:`repro.sim.runner.job_fingerprint` joins memoized canonical text per
spec value.  Python's ``==`` merges values the canonical form keeps apart —
``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0`` — so a memo keyed on
plain equality would hand one value's text to another, and a job's digest
would depend on which value the process met first.  Hypothesis draws jobs
whose system config, L1 setup and strategy fields mix exactly those values
and checks every digest three ways: with the memo cleared, after warming
it with the other jobs in a random order, and against the unmemoized
reference encoding of the job's canonical form.
"""

import copy
import hashlib
import json

from hypothesis import given, settings, strategies as st

from repro import __version__
from repro.common.config import CacheTiming, CoreConfig, MemoryConfig, SystemConfig
from repro.energy.technology import TechnologyParameters
from repro.sim import runner
from repro.sim.runner import L1SetupSpec, SimJob, StrategySpec, TraceSpec, job_fingerprint

#: Values that compare equal (or nearly so) yet canonicalize differently.
_ONES = st.sampled_from([1, 1.0, True])
_ZEROS = st.sampled_from([0, 0.0, -0.0, False])
_NUMBERS = st.one_of(_ONES, _ZEROS)


@st.composite
def _systems(draw):
    return SystemConfig(
        core=CoreConfig(branch_mispredict_penalty=draw(_ZEROS)),
        l1_timing=CacheTiming(hit_latency=draw(_ONES)),
        memory=MemoryConfig(cycles_per_chunk=draw(_NUMBERS)),
    )


@st.composite
def _strategies(draw):
    if draw(st.booleans()):
        return None
    return StrategySpec.dynamic(
        miss_bound=draw(_NUMBERS),
        size_bound_bytes=draw(_NUMBERS),
        downsize_fraction=draw(_ONES),
        settle_intervals=draw(_NUMBERS),
    )


@st.composite
def _setups(draw):
    organization = draw(
        st.sampled_from([None, "selective-ways", "selective-sets", "hybrid"])
    )
    if organization is None:
        return L1SetupSpec()
    return L1SetupSpec(organization=organization, strategy=draw(_strategies()))


@st.composite
def _jobs(draw):
    return SimJob(
        trace=TraceSpec("gcc", 1_000, seed=draw(st.one_of(st.none(), _NUMBERS))),
        system=draw(_systems()),
        d_setup=draw(_setups()),
        i_setup=draw(_setups()),
        technology=TechnologyParameters(tag_bit_energy=draw(_NUMBERS)),
        warmup_instructions=draw(_NUMBERS),
    )


def _reference_fingerprint(job):
    """The parent encoding: one ``json.dumps`` over ``_canonical(job)``."""
    payload = json.dumps(
        {
            "version": runner._FINGERPRINT_VERSION,
            "repro_version": __version__,
            "source": runner._source_digest(),
            "job": runner._canonical(job),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@settings(max_examples=60, deadline=None)
@given(jobs=st.lists(_jobs(), min_size=2, max_size=8), data=st.data())
def test_digest_is_independent_of_memo_state(jobs, data):
    cold = []
    for job in jobs:
        runner.clear_fingerprint_memo()
        cold.append(job_fingerprint(job))
    assert cold == [_reference_fingerprint(job) for job in jobs]

    runner.clear_fingerprint_memo()
    for index in data.draw(st.permutations(range(len(jobs))), label="warm order"):
        job_fingerprint(jobs[index])
    # The same objects (identity path) and equal copies (value path).
    assert [job_fingerprint(job) for job in jobs] == cold
    assert [job_fingerprint(copy.deepcopy(job)) for job in jobs] == cold
