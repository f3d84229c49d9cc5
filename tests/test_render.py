import hashlib

import pytest

from polyembed.errors import ValidationError
from polyembed.model import Embedding
from polyembed.reduction import build_instance, validate_3p
from polyembed.render import render_svg
from polyembed.solver import SolveStatus, decide_embedding

# SHA-256 of render_svg's output for the solved 133-point reduction of
# [6, 6, 10, 7, 7, 8] * 3 with B = 22, under the default root.
EMBEDDED_SVG = "2e69fd23281558f6815c2fc91536627260cebd0ae368054fb0557c88b13fc8e7"
BARE_SVG = "7bd17c453489865713f2bbfdcb8ae9b4b9ef37c8fcc180838f6faf83c8290e42"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_render_output_pinned():
    instance, meta = build_instance(validate_3p(22, [6, 6, 10, 7, 7, 8] * 3))
    assert len(instance.points) == 133
    outcome = decide_embedding(instance)
    assert outcome.status is SolveStatus.EMBEDDED
    assert _sha(render_svg(instance, outcome.embedding, meta.p0_point)) == EMBEDDED_SVG
    assert _sha(render_svg(instance)) == BARE_SVG


def test_short_embedding_rejected():
    instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
    with pytest.raises(ValidationError) as err:
        render_svg(instance, Embedding((1, 0)))
    assert err.value.code == "MappingLengthMismatch"


@pytest.mark.parametrize("highlight", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_non_integer_highlight_rejected(highlight):
    # True is not point 1: nothing is highlighted by a converted value.
    instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
    with pytest.raises(ValidationError) as err:
        render_svg(instance, None, highlight)
    assert err.value.code == "InvalidConfig"


@pytest.mark.parametrize("highlight", [-1, 8, 10**30])
def test_highlight_past_the_points_rejected(highlight):
    # The 8-point reduction has points 0-7; any other index names no point.
    instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
    with pytest.raises(ValidationError, match=f"highlight_point {highlight} out of range") as err:
        render_svg(instance, None, highlight)
    assert err.value.code == "InvalidConfig"
