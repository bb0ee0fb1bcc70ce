"""E2/E7 — Fig. 3: aggregate mean +/- CI percentage-of-optimum lines.

Regenerates the paper's Fig. 3 (mean of the per-panel medians with a
bootstrap confidence band) and checks the aggregate ordering claims:
Bayesian methods lead at small sample sizes, GA catches up at large ones,
and BO GP's curve flattens somewhere past S = 100 (the paper's
"overfitting" observation, E7).
"""

from repro.reporting import figure3, render_lineplot


def _series(plot, label):
    return next(s for s in plot.series if s.label == label)


def test_fig3_generation(benchmark, study, scale_note):
    plot = benchmark(figure3, study)

    print()
    print(scale_note)
    print(render_lineplot(plot))
    print()
    print(plot.to_csv())

    sizes = study.sample_sizes
    smallest, largest = 0, len(sizes) - 1

    rs = _series(plot, "RS")
    ga = _series(plot, "GA")
    bo_gp = _series(plot, "BO GP")
    bo_tpe = _series(plot, "BO TPE")

    # Everyone improves with more samples.
    for s in plot.series:
        assert s.y[largest] > s.y[smallest]

    # Claim: BO GP leads (or ties the leader) at small sample sizes.
    leaders_small = max(s.y[smallest] for s in plot.series)
    assert bo_gp.y[smallest] >= leaders_small - 5.0

    # Claim: advanced techniques beat RS at every size in aggregate.
    for s in (ga, bo_gp, bo_tpe):
        assert s.y[largest] > rs.y[largest]

    # Claim: GA closes the gap at large sizes -- it must rank in the top
    # two among the advanced methods at the largest size.
    finals = sorted(
        (s.y[largest], s.label) for s in plot.series
    )
    top_two = {label for _, label in finals[-2:]}
    assert "GA" in top_two or ga.y[largest] >= finals[-2][0] - 2.0

    # E7: BO GP's curve flattens: its gain over the last size step is
    # smaller than its gain over the first step.
    first_gain = bo_gp.y[1] - bo_gp.y[0]
    last_gain = bo_gp.y[largest] - bo_gp.y[largest - 1]
    assert last_gain < first_gain

    # CI bands are ordered.
    for s in plot.series:
        for lo, mid, hi in zip(s.y_low, s.y, s.y_high):
            assert lo <= mid <= hi
