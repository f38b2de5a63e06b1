"""Property-based tests (hypothesis) on core invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.evaluator import Evaluator
from repro.core.pareto import dominates, pareto_frontier
from repro.cost.yield_model import (
    poisson_yield,
    redundancy_repair_yield,
)
from repro.dft.redundancy import allocate_spares
from repro.dram.organizations import (
    AddressMapping,
    MappingScheme,
    Organization,
)
from repro.units import fill_frequency, is_power_of_two


# -- address mapping -------------------------------------------------------

org_strategy = st.builds(
    Organization,
    n_banks=st.sampled_from([1, 2, 4, 8, 16]),
    n_rows=st.integers(min_value=1, max_value=4096),
    page_bits=st.sampled_from([512, 1024, 2048, 4096, 8192]),
    word_bits=st.sampled_from([8, 16, 32, 64, 128]),
).filter(lambda o: o.word_bits <= o.page_bits)


@given(
    org=org_strategy,
    scheme=st.sampled_from(list(MappingScheme)),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_mapping_roundtrip(org, scheme, data):
    """decode(encode(x)) == x for any organization and scheme."""
    mapping = AddressMapping(org, scheme)
    address = data.draw(
        st.integers(min_value=0, max_value=org.total_words - 1)
    )
    decoded = mapping.decode(address)
    assert 0 <= decoded.bank < org.n_banks
    assert 0 <= decoded.row < org.n_rows
    assert 0 <= decoded.column < org.columns_per_page
    assert mapping.encode(decoded) == address


@given(org=org_strategy, scheme=st.sampled_from(list(MappingScheme)))
@settings(max_examples=50, deadline=None)
def test_mapping_injective_on_prefix(org, scheme):
    """Distinct addresses decode to distinct coordinates."""
    mapping = AddressMapping(org, scheme)
    n = min(org.total_words, 512)
    decoded = {
        (d.bank, d.row, d.column)
        for d in (mapping.decode(a) for a in range(n))
    }
    assert len(decoded) == n


# -- pareto ------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_pareto_frontier_sound_and_complete(points):
    frontier = pareto_frontier(points, lambda p: p)
    # Sound: no frontier member dominates another.
    for a, b in itertools.permutations(frontier, 2):
        assert not dominates(a, b)
    # Complete: every non-member is dominated by some member.
    frontier_set = set(frontier)
    for point in points:
        if point not in frontier_set:
            assert any(dominates(f, point) for f in frontier)
    # Non-empty for non-empty input.
    assert frontier


# -- redundancy repair -----------------------------------------------------


@given(
    faults=st.sets(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=12
    ),
    spare_rows=st.integers(0, 4),
    spare_cols=st.integers(0, 4),
)
@settings(max_examples=200, deadline=None)
def test_repair_plan_sound(faults, spare_rows, spare_cols):
    """A repaired plan covers everything within budget; an unrepaired
    plan reports genuinely uncovered cells."""
    plan = allocate_spares(faults, spare_rows, spare_cols)
    assert len(plan.spare_rows_used) <= spare_rows
    assert len(plan.spare_cols_used) <= spare_cols
    if plan.repaired:
        assert all(plan.covers(cell) for cell in faults)
        assert not plan.uncovered
    else:
        assert plan.uncovered
        assert all(not plan.covers(cell) for cell in plan.uncovered)


@given(
    faults=st.sets(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6
    ),
)
@settings(max_examples=100, deadline=None)
def test_repair_monotone_in_budget(faults):
    """More spares never turn a repairable pattern unrepairable."""
    small = allocate_spares(faults, 1, 1)
    large = allocate_spares(faults, 4, 4)
    if small.repaired:
        assert large.repaired


# -- analytic models ---------------------------------------------------------


@given(
    area=st.floats(min_value=0.0, max_value=500.0),
    d0=st.floats(min_value=0.0, max_value=3.0),
    spares=st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_yield_bounds_and_monotonicity(area, d0, spares):
    base = poisson_yield(area, d0)
    repaired = redundancy_repair_yield(area, d0, spares)
    assert 0.0 <= base <= 1.0
    assert base <= repaired <= 1.0


@given(
    locality=st.floats(min_value=0.0, max_value=1.0),
    page=st.sampled_from([1024, 2048, 4096, 8192]),
    burst=st.sampled_from([64, 128, 256, 512, 1024]),
)
@settings(max_examples=200, deadline=None)
def test_hit_rate_bounded(locality, page, burst):
    hit = Evaluator.row_hit_rate(locality, page, burst)
    assert 0.0 <= hit <= 1.0
    assert hit <= locality + 1e-12


@given(
    hit=st.floats(min_value=0.0, max_value=1.0),
    burst=st.integers(1, 16),
    prep=st.integers(0, 20),
    banks=st.sampled_from([1, 2, 4, 8, 16]),
    refresh=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=200, deadline=None)
def test_efficiency_bounded_and_monotone_in_banks(
    hit, burst, prep, banks, refresh
):
    eff = Evaluator.bandwidth_efficiency(hit, burst, prep, banks, refresh)
    assert 0.0 <= eff <= 1.0
    if banks > 1:
        fewer = Evaluator.bandwidth_efficiency(
            hit, burst, prep, banks // 2, refresh
        )
        assert eff >= fewer - 1e-12


@given(
    bandwidth=st.floats(min_value=1.0, max_value=1e12),
    size=st.integers(min_value=1, max_value=1 << 40),
)
@settings(max_examples=100, deadline=None)
def test_fill_frequency_positive_and_scales(bandwidth, size):
    ff = fill_frequency(bandwidth, size)
    assert ff > 0
    assert fill_frequency(bandwidth, 2 * size) < ff or ff == 0


# -- macro constructibility -----------------------------------------------


@given(
    blocks=st.integers(min_value=1, max_value=512),
    width=st.sampled_from([16, 32, 64, 128, 256, 512]),
    banks=st.sampled_from([1, 2, 4, 8, 16]),
    page=st.sampled_from([1024, 2048, 4096, 8192]),
)
@settings(max_examples=200, deadline=None)
def test_every_validated_macro_is_usable(blocks, width, banks, page):
    """If the concept rules accept a configuration, the macro, its
    organization, its device and its area model all work."""
    from repro.dram.edram import EDRAMMacro
    from repro.errors import ConfigurationError
    from repro.units import KBIT

    size = blocks * 256 * KBIT
    try:
        macro = EDRAMMacro.build(
            size_bits=size, width=width, banks=banks, page_bits=page
        )
    except ConfigurationError:
        return  # rejected configurations are out of scope
    organization = macro.organization
    assert organization.capacity_bits == size
    assert macro.area_mm2() > 0
    assert macro.peak_bandwidth_bits_per_s > 0
    device = macro.device()
    assert device.capacity_bits == size


@given(required=st.integers(min_value=1, max_value=128 * (1 << 20)))
@settings(max_examples=200, deadline=None)
def test_quantizer_snap_tight_and_constructible(required):
    """snap_size covers the requirement within one building block."""
    from repro.core.quantizer import Quantizer
    from repro.units import KBIT

    quantizer = Quantizer()
    snapped = quantizer.snap_size(required)
    assert snapped >= required
    assert snapped - required < 256 * KBIT or snapped == 256 * KBIT
    assert snapped % (256 * KBIT) == 0
    counts = quantizer.block_decomposition(snapped)
    rebuilt = sum(size * count for size, count in counts.items())
    assert rebuilt == snapped


# -- partitioning -----------------------------------------------------------


@given(
    sizes=st.lists(
        st.floats(min_value=0.01, max_value=32.0), min_size=1, max_size=6
    ),
    bandwidths=st.data(),
    budget=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_partition_respects_budget_and_constraints(
    sizes, bandwidths, budget
):
    """Any returned plan fits the area budget and every block's own
    constraints; infeasibility raises rather than silently violating."""
    from repro.core.partition import MemoryBlock, Partitioner
    from repro.errors import InfeasibleError
    from repro.units import MBIT

    blocks = []
    for index, size in enumerate(sizes):
        bandwidth = bandwidths.draw(
            st.floats(min_value=1e6, max_value=8e9)
        )
        blocks.append(
            MemoryBlock(
                name=f"b{index}",
                size_bits=int(size * MBIT),
                bandwidth_bits_per_s=bandwidth,
            )
        )
    partitioner = Partitioner(area_budget_mm2=budget)
    try:
        plan = partitioner.partition(blocks)
    except InfeasibleError:
        return
    assert plan.area_mm2 <= budget + 1e-9
    for block in blocks:
        tech = plan.assignment[block.name]
        profile = partitioner.profiles[tech]
        assert (
            block.bandwidth_bits_per_s
            <= profile.max_bandwidth_bits_per_s
        )


# -- march tests -------------------------------------------------------------


@given(
    seed=st.integers(0, 1000),
    n_faults=st.integers(0, 10),
)
@settings(max_examples=30, deadline=None)
def test_march_c_no_false_positives_and_full_hard_fault_coverage(
    seed, n_faults
):
    """March C- flags a superset check: every flagged cell is truly
    faulty (no false positives on this fault mix) and every non-
    retention cell fault is flagged."""
    from repro.dft.faults import inject_random_faults
    from repro.dft.march import MARCH_C_MINUS

    array = inject_random_faults(
        16, 16, n_cell_faults=n_faults, seed=seed, include_retention=False
    )
    result = MARCH_C_MINUS.run(array)
    truth = array.faulty_cells()
    assert result.failing_cells <= truth
    assert result.detected(truth) == 1.0
