"""Tests for the experiment render surfaces."""

from repro.experiments import figure3, table2
from repro.experiments.ablations import AblationResult, AblationRow


class TestRenderSurfaces:
    def test_table2_render_lists_all_parameters(self):
        text = table2().render()
        for name in (
            "il1_size",
            "il1_assoc",
            "il1_block",
            "dl1_size",
            "btb_entries",
            "btb_assoc",
        ):
            assert name in text

    def test_figure3_render_mentions_paper_values(self):
        text = figure3().render()
        assert "6.42e8" in text
        assert "39" in text

    def test_ablation_render_alignment(self):
        result = AblationResult(
            title="t",
            rows=[
                AblationRow("a", 1.1, 0.5, 0.9),
                AblationRow("b", 1.2, 0.6, 0.8),
            ],
        )
        text = result.render()
        assert "t" in text
        assert "50.00%" in text
        assert "1.200" in text

    def test_hinton_render_shades(self, tiny_data):
        from repro.experiments import figure8

        result = figure8(tiny_data)
        text = result.render()
        # Shade characters only come from the defined ramp.
        art_lines = text.splitlines()[1 : 1 + len(result.rows)]
        for line in art_lines:
            cells = line[len(line) - len(result.columns) :]
            assert set(cells) <= set(result.SHADES)

    def test_figure7_render_contains_regions(self, tiny_data, tiny_protocol):
        from repro.experiments import figure7

        text = figure7(tiny_data, tiny_protocol.report.protocol.base).render()
        assert "low-headroom" in text
        assert "high-headroom" in text

    def test_figure10_render_compares_spaces(self, tiny_data, tiny_protocol):
        # Construct directly to avoid building an extended dataset here.
        from repro.experiments import figure6
        from repro.experiments.figures import Figure10Result

        base = figure6(tiny_data, tiny_protocol.report.protocol.base)
        result = Figure10Result(base=base, extended=base)
        text = result.render()
        assert "base space" in text
        assert "extended space" in text
