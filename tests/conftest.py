import pytest
import hypothesis

hypothesis.settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    derandomize=False,
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def small_fields(monkeypatch):
    """Modular fields of size about 100, where spurious zero images and
    spurious modular rank drops are common instead of one in a million."""
    from gesforge import minors

    def clear():
        minors.modular_context.cache_clear()
        minors._power_table.cache_clear()
        minors.proof_fields.cache_clear()

    monkeypatch.setattr(minors, "_MODULUS_FLOOR", 100)
    clear()
    yield
    clear()
