"""E6 -- Table VI: the generated non-stalling MSI cache controller versus the
primer's hand-written one.

The paper reports two qualitative differences: the generated protocol stalls
less (extra states IM_AD_S, IM_AD_I, IM_AD_SI, SM_AD_S replace stalls on
forwarded requests in IM_AD/SM_AD) and merges some states the primer keeps
separate (IM_A_I = SM_A_I etc.).  This benchmark prints the full generated
table plus the structural diff.
"""

from conftest import banner

from repro import protocols
from repro.analysis import compare_with_baseline
from repro.backends import render_table
from repro.core import GenerationConfig, generate
from repro.protocols import primer


def test_table6_nonstalling_msi_vs_primer():
    generated = generate(protocols.load("MSI"), GenerationConfig.nonstalling())
    baseline = primer.nonstalling_msi_cache()
    report = compare_with_baseline(generated.cache, baseline)

    banner("Table VI -- generated non-stalling MSI cache controller")
    print(render_table(generated.cache))

    banner("Comparison against the primer's non-stalling MSI cache controller")
    print(f"  generated {report.generated_name}: {len(report.generated_states)} states")
    print(f"  baseline  {report.baseline_name}: {len(report.baseline_states)} states")
    print(f"  extra states in generated protocol: {sorted(report.extra_states)}")
    print(f"  baseline states merged by the generator: {sorted(report.merged_states.items())}")
    print(f"  cells un-stalled relative to baseline: {sorted(report.unstalled_cells)}")
    print(f"  cells newly stalled relative to baseline: {sorted(report.newly_stalled_cells)}")
    print(f"  paper-reported extra states:      {sorted(primer.PROTOGEN_EXTRA_STATES)}")
    print(f"  paper-reported un-stalled cells:  {sorted(primer.PROTOGEN_UNSTALLED_CELLS)}")
    print(f"  paper-reported merged pairs:      {sorted(primer.PROTOGEN_MERGED_PAIRS)}")

    # The paper's qualitative findings must hold.
    assert primer.PROTOGEN_EXTRA_STATES <= report.extra_states
    assert primer.PROTOGEN_UNSTALLED_CELLS <= report.unstalled_cells
    assert report.newly_stalled_cells == set()
    merged_aliases = {a for aliases in report.merged_states.values() for a in aliases}
    assert {"SM_A_I", "SM_A_SI"} <= merged_aliases
    # 18 primer states; the paper's generated protocol has 19, ours 20
    # (SM_A_S stays separate because it can still serve load hits).
    assert baseline.num_states == 18
    assert 19 <= generated.cache.num_states <= 21
