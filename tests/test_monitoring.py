import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmarket import (
    CostFamily,
    InputError,
    Policy,
    PolicyProfile,
    Signal,
    StepMonitoringPolicy,
    reduce_minimal,
)
from sigmarket.market import MAX_THRESHOLDS

LIN = CostFamily.linear(2.0, 1.0)


def step_policies():
    # snap thresholds to a 1e-3 lattice so right-continuity probes at +1e-6
    # never straddle two thresholds
    return st.lists(
        st.floats(0.01, 10.0).map(lambda x: round(x, 3)), min_size=0, max_size=4, unique=True
    ).map(lambda ts: StepMonitoringPolicy(thresholds=tuple(sorted(ts)), messages=tuple(range(len(ts) + 1))))


def test_thresholds_beyond_cap_rejected():
    """from_dict refuses MAX_THRESHOLDS + 1 thresholds, naming the field,
    before the policy is built; the cap itself parses."""
    def data(k):
        return {"thresholds": [0.001 * (j + 1) for j in range(k)], "messages": list(range(k + 1))}

    assert len(StepMonitoringPolicy.from_dict(data(MAX_THRESHOLDS)).thresholds) == MAX_THRESHOLDS
    with pytest.raises(InputError, match=f"field 'thresholds' is malformed: expected at most {MAX_THRESHOLDS} thresholds"):
        StepMonitoringPolicy.from_dict(data(MAX_THRESHOLDS + 1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_policy_rejected(bad):
    with pytest.raises(InputError, match="finite"):
        StepMonitoringPolicy.cutoff(bad)
    with pytest.raises(InputError, match="finite"):
        Policy(fee=bad, monitoring=StepMonitoringPolicy.uninformative())


class TestMessageOf:
    def test_examples(self):
        uni = StepMonitoringPolicy.uninformative()
        assert uni.message_of(7.3) == 0
        cut = StepMonitoringPolicy((0.5,), (10, 11))
        assert cut.message_of(0.5) == 11  # right-continuous at the cutoff
        assert cut.message_of(0.49) == 10

    @given(policy=step_policies(), effort=st.floats(0.0, 12.0))
    @settings(max_examples=80)
    def test_min_effort_bounds_effort(self, policy, effort):
        m = policy.message_of(effort)
        assert policy.min_effort(m) <= effort
        starts = set(policy.band_starts())
        if policy.min_effort(m) == effort:
            assert effort in starts

    @given(policy=step_policies())
    @settings(max_examples=40)
    def test_right_continuity_at_thresholds(self, policy):
        for t in policy.thresholds:
            m = policy.message_of(t)
            for delta in (1e-12, 1e-9, 1e-6):
                assert policy.message_of(t + delta) == m

    def test_unknown_message(self):
        with pytest.raises(InputError):
            StepMonitoringPolicy.uninformative().min_effort(99)


class TestMinEffort:
    def test_examples(self):
        assert StepMonitoringPolicy.cutoff(0.5).min_effort(1) == 0.5
        assert StepMonitoringPolicy.cutoff(0.5).min_effort(0) == 0.0
        three = StepMonitoringPolicy(thresholds=(0.2, 0.9), messages=(0, 1, 2))
        assert three.min_effort(2) == 0.9


def reference_reduce_minimal(policy, sent_messages):
    """reduce_minimal's rule as a band-by-band merge: every unsent band goes
    to its immediate left neighbour when that band is sent, otherwise to the
    nearest sent band to the right, falling back to the nearest sent band on
    the left when the unsent run reaches the top; runs of equal targets merge."""
    sent = set(sent_messages)
    starts = policy.band_starts()
    msgs = policy.messages
    n = len(msgs)
    targets = []
    for j, m in enumerate(msgs):
        if m in sent:
            targets.append(m)
            continue
        if j > 0 and msgs[j - 1] in sent:
            targets.append(msgs[j - 1])
            continue
        right = next((msgs[k] for k in range(j + 1, n) if msgs[k] in sent), None)
        if right is not None:
            targets.append(right)
        else:
            targets.append(next(msgs[k] for k in range(j - 1, -1, -1) if msgs[k] in sent))
    new_thresholds = []
    new_messages = [targets[0]]
    for j in range(1, n):
        if targets[j] != new_messages[-1]:
            new_thresholds.append(starts[j])
            new_messages.append(targets[j])
    return StepMonitoringPolicy(thresholds=tuple(new_thresholds), messages=tuple(new_messages))


class TestReduceMinimal:
    def test_merges_unsent_middle_band(self):
        pol = StepMonitoringPolicy(thresholds=(0.5, 1.0), messages=(0, 1, 2))
        red = reduce_minimal(pol, {0, 2})
        assert red.thresholds == (1.0,)
        assert red.messages == (0, 2)

    def test_identity_cases(self):
        pol = StepMonitoringPolicy(thresholds=(0.5, 1.0), messages=(0, 1, 2))
        assert reduce_minimal(pol, {0, 1, 2}) == pol
        uni = StepMonitoringPolicy.uninformative()
        assert reduce_minimal(uni, {0}) == uni

    def test_empty_sent_rejected(self):
        with pytest.raises(InputError):
            reduce_minimal(StepMonitoringPolicy.uninformative(), set())
        with pytest.raises(InputError):
            reduce_minimal(StepMonitoringPolicy.uninformative(), {3})

    @pytest.mark.parametrize("k", range(7))
    def test_closed_form_matches_the_merge_on_every_sent_set(self, k):
        """Whole policies, floats included, agree with the reference on every
        nonempty sent set of a k-threshold policy."""
        policy = StepMonitoringPolicy(thresholds=tuple(0.3 * (j + 1) + 0.01 * j * j for j in range(k)), messages=tuple(range(k + 1)))
        for size in range(1, k + 2):
            for sent in itertools.combinations(policy.messages, size):
                assert reduce_minimal(policy, sent) == reference_reduce_minimal(policy, sent)

    def test_closed_form_matches_the_merge_on_random_policies(self):
        rng = random.Random(27)
        for k in range(9):
            for _ in range(200):
                policy = StepMonitoringPolicy(
                    thresholds=tuple(sorted({rng.uniform(1e-3, 10.0) for _ in range(k)})),
                    messages=tuple(rng.sample(range(-50, 50), k + 1)),
                )
                sent = rng.sample(policy.messages, rng.randint(1, k + 1))
                assert reduce_minimal(policy, sent) == reference_reduce_minimal(policy, sent)

    @given(policy=step_policies(), data=st.data())
    @settings(max_examples=80)
    def test_agreement_and_image(self, policy, data):
        msgs = list(policy.messages)
        sent = data.draw(
            st.sets(st.sampled_from(msgs), min_size=1, max_size=len(msgs))
        )
        red = reduce_minimal(policy, sent)
        assert set(red.messages) == sent
        assert len(red.messages) == len(sent)
        probe = list(policy.band_starts()) + [t + 1e-6 for t in policy.thresholds] + [17.0]
        for e in probe:
            if policy.message_of(e) in sent:
                assert red.message_of(e) == policy.message_of(e)


class TestProfile:
    def test_structure(self):
        prof = PolicyProfile.symmetric(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(1.0)), 3)
        assert prof.n == 3
        assert prof.thresholds() == (1.0,)
        assert len(prof.signals()) == 6
        with pytest.raises(InputError):
            prof.replace(5, prof[0])

    def test_informative_grid_constructor(self):
        pol = StepMonitoringPolicy.informative_on_grid([0.0, 0.5, 1.0])
        assert pol.message_of(0.75) == 1
        assert pol.message_of(1.0) == 2
        with pytest.raises(InputError):
            StepMonitoringPolicy.informative_on_grid([0.5, 1.0])

    def test_json_round_trip(self):
        prof = PolicyProfile.of(
            Policy(fee=0.25, monitoring=StepMonitoringPolicy.cutoff(0.5)),
            Policy(fee=0.0, monitoring=StepMonitoringPolicy.uninformative()),
        )
        assert PolicyProfile.from_list(prof.to_list()) == prof

    def test_validation(self):
        with pytest.raises(InputError):
            StepMonitoringPolicy(thresholds=(0.5,), messages=(0, 0))
        with pytest.raises(InputError):
            StepMonitoringPolicy(thresholds=(1.0, 0.5), messages=(0, 1, 2))
        with pytest.raises(InputError):
            Policy(fee=-0.1, monitoring=StepMonitoringPolicy.uninformative())


class TestClasses:
    def test_equal_policies_share_a_class(self):
        a = Policy(fee=0.5, monitoring=StepMonitoringPolicy.cutoff(1.0))
        b = Policy(fee=0.5, monitoring=StepMonitoringPolicy((1.0,), (0, 1)))
        assert a is not b
        assert PolicyProfile.of(a, b).classes() == {a: (0, 1)}

    def test_message_ids_tell_policies_apart(self):
        a = Policy(fee=0.5, monitoring=StepMonitoringPolicy((1.0,), (0, 1)))
        b = Policy(fee=0.5, monitoring=StepMonitoringPolicy((1.0,), (1, 0)))
        assert PolicyProfile.of(a, b).classes() == {a: (0,), b: (1,)}

    def test_first_index_order(self):
        p, q, r = (Policy(fee=f, monitoring=StepMonitoringPolicy.uninformative()) for f in (0.75, 0.25, 0.5))
        classes = PolicyProfile.of(p, q, p, r, q).classes()
        assert list(classes.items()) == [(p, (0, 2)), (q, (1, 4)), (r, (3,))]
        assert PolicyProfile.symmetric(r, 3).classes() == {r: (0, 1, 2)}


class TestSignal:
    @given(st.integers(0, 64), st.integers(-8, 10**6))
    def test_hashes_and_round_trips_as_the_plain_pair(self, school, message):
        s = Signal(school, message)
        # sets of signals iterate, and verify lists violations, in the order this hash gives
        assert hash(s) == hash((school, message))
        assert s == (school, message)
        assert Signal.from_key(s.key()) == s
        assert s.key() == f"{school}:{message}"

    def test_sorts_by_school_then_message(self):
        signals = [Signal(1, 0), Signal(0, 2), Signal(0, 1), Signal(2, -1)]
        assert sorted(signals) == [Signal(0, 1), Signal(0, 2), Signal(1, 0), Signal(2, -1)]

    def test_fields_are_read_only(self):
        s = Signal(0, 1)
        with pytest.raises(AttributeError):
            s.school = 2
        with pytest.raises(AttributeError):
            s.message = 3

    @pytest.mark.parametrize("key", ["0", "0:1:2", "a:1", ""])
    def test_bad_key_rejected(self, key):
        with pytest.raises(InputError, match="bad signal key"):
            Signal.from_key(key)
