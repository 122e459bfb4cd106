"""The Telemetry facade: no-op defaults, ambient scoping, chunk merge."""

from repro.obs import NULL_TELEMETRY, Telemetry, ambient, use_telemetry


class TestNullTelemetry:
    def test_disabled_emitters_record_nothing(self):
        tel = NULL_TELEMETRY
        tel.count("x")
        tel.observe("h", 1.0)
        tel.observe_many("h", [1.0, 2.0])
        tel.event("failure", 1.0)
        with tel.span("s"):
            pass
        assert len(tel.metrics) == 0
        assert len(tel.events) == 0
        assert tel.trace.spans == []

    def test_disabled_span_is_reusable_singleton(self):
        tel = NULL_TELEMETRY
        assert tel.span("a") is tel.span("b")


class TestCollecting:
    def test_emitters_record(self):
        tel = Telemetry.collecting()
        tel.count("c", 2)
        tel.observe("h", 3.0)
        tel.observe_many("h", [4.0, 5])
        tel.observe_many("empty", [])
        tel.event("failure", 1.0, trial=0)
        with tel.span("s", k=1):
            pass
        assert tel.metrics.counters() == [("c", 2)]
        # An empty column creates no histogram, as no observe call would.
        [(name, hist)] = tel.metrics.histograms()
        assert (name, hist.count, hist.max) == ("h", 3, 5)
        assert len(tel.events) == 1
        assert [s.name for s in tel.trace.spans] == ["s"]


class TestAmbient:
    def test_default_ambient_is_disabled(self):
        assert ambient() is NULL_TELEMETRY

    def test_use_telemetry_scopes_and_restores(self):
        tel = Telemetry.collecting()
        with use_telemetry(tel) as active:
            assert active is tel
            assert ambient() is tel
        assert ambient() is NULL_TELEMETRY

    def test_none_leaves_ambient_in_place(self):
        outer = Telemetry.collecting()
        with use_telemetry(outer):
            with use_telemetry(None) as active:
                assert active is outer
                assert ambient() is outer
        assert ambient() is NULL_TELEMETRY

    def test_restores_on_exception(self):
        tel = Telemetry.collecting()
        try:
            with use_telemetry(tel):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert ambient() is NULL_TELEMETRY
