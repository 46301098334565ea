import pytest
from hypothesis import given
from hypothesis import strategies as st

from holobundle.bundles import BundleTopology
from holobundle.config import ConfigError, parse_config, render_config
from holobundle.criteria import SurfaceKind, SurfaceModel
from holobundle.lattice import IntersectionLattice

MINIMAL_K3 = """
[surface]
kind = k3
gram = -2
a_x = 0

[bundle]
rank = 2
c1 = 1
c2 = 0
"""


def test_minimal_k3_defaults():
    cfg = parse_config(MINIMAL_K3, "decide")
    assert cfg.surface.kind is SurfaceKind.K3
    assert cfg.surface.lattice.gram == ((-2,),)
    assert cfg.surface.chi_o == 2
    assert cfg.surface.anticanonical == (0,)
    assert cfg.surface.algebraic_dimension == 0
    assert cfg.surface.vii_applicable
    assert cfg.bundle.rank == 2
    assert cfg.bundle.c1 == (1,)
    assert cfg.bundle.c2 == 0
    assert cfg.bundle.c1_in_ns
    assert cfg.command == "decide"
    assert (cfg.seed, cfg.radius, cfg.output_format, cfg.strict) == (0, 3, "text", False)


def test_render_round_trip():
    cfg = parse_config(MINIMAL_K3, "decide")
    again = parse_config(render_config(cfg.surface, cfg.bundle), "decide")
    assert again.surface == cfg.surface
    assert again.bundle == cfg.bundle


@st.composite
def surfaces_and_bundles(draw):
    # -B^T B with B of k <= n rows: negative semi-definite, with a radical when k < n
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, n))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=k, max_size=k))
    kind = draw(st.sampled_from(SurfaceKind))
    even = 2 if kind is SurfaceKind.K3 else 1
    gram = tuple(
        tuple(-even * sum(row[i] * row[j] for row in rows) for j in range(n)) for i in range(n)
    )
    vector = st.tuples(*[st.integers(-5, 5)] * n)
    if kind is SurfaceKind.K3:
        chi_o, anticanonical = 2, (0,) * n
    else:
        chi_o, anticanonical = draw(st.integers(-3, 3)), draw(vector)
    surface = SurfaceModel(
        kind,
        IntersectionLattice(gram),
        chi_o,
        anticanonical,
        algebraic_dimension=draw(st.integers(0, 1)),
        vii_applicable=draw(st.booleans()),
    )
    bundle = BundleTopology(
        draw(st.integers(1, 6)), draw(vector), draw(st.integers(-50, 50)), draw(st.booleans())
    )
    return surface, bundle


@given(surfaces_and_bundles())
def test_render_parse_round_trip_fuzz(pair):
    surface, bundle = pair
    cfg = parse_config(render_config(surface, bundle), "decide")
    assert (cfg.surface, cfg.bundle) == (surface, bundle)


@given(surfaces_and_bundles(), st.integers(0, 3), st.data())
def test_indefinite_gram_rejected_on_its_line(pair, pad, data):
    surface, bundle = pair
    gram = [list(row) for row in surface.lattice.gram] or [[0]]
    n = len(gram)
    i = data.draw(st.integers(0, n - 1))
    if n > 1 and data.draw(st.booleans()):
        # a zero square pairing non-trivially with another class
        j = data.draw(st.integers(0, n - 2))
        j += j >= i
        gram[i][i] = 0
        gram[i][j] = gram[j][i] = data.draw(st.sampled_from([-2, -1, 1, 2]))
    else:
        gram[i][i] = data.draw(st.integers(1, 4))
    lines = render_config(surface, bundle).splitlines()
    assert lines[2].startswith("gram = ")
    lines[2] = "gram = " + "; ".join(", ".join(str(e) for e in row) for row in gram)
    text = "# padding\n\n" * pad + "\n".join(lines) + "\n"
    err = error_of(text)
    assert err.message == "lattice not negative semi-definite"
    assert err.line == 3 + 2 * pad


def test_comments_and_blank_lines():
    text = MINIMAL_K3.replace("[bundle]", "# a comment\n\n[bundle]  # trailing")
    cfg = parse_config(text, "decide")
    assert cfg.bundle.rank == 2


def test_class_vii_defaults():
    text = "[surface]\nkind = class7\ngram = -1\n[bundle]\nrank = 2\nc1 = 1\nc2 = 0\n"
    cfg = parse_config(text, "decide")
    assert cfg.surface.chi_o == 0
    assert cfg.surface.vii_applicable


def test_rank_zero_lattice():
    text = "[surface]\nkind = class7\ngram =\n[bundle]\nrank = 2\nc1 =\nc2 = 1\n"
    cfg = parse_config(text, "decide")
    assert cfg.surface.lattice.rank == 0
    assert cfg.bundle.c1 == ()


def test_check_needs_no_sections():
    cfg = parse_config("", "check", seed=42)
    assert cfg.surface is None and cfg.bundle is None


def error_of(text, command="decide", **kwargs):
    with pytest.raises(ConfigError) as info:
        parse_config(text, command, **kwargs)
    return info.value


def test_positive_form_rejected():
    err = error_of("[surface]\nkind = k3\ngram = 2\n")
    assert err.message == "lattice not negative semi-definite"
    assert err.line == 3


def test_missing_c2():
    err = error_of("[surface]\nkind = generic\ngram = -1\n[bundle]\nrank = 2\nc1 = 1\n")
    assert err.message == "missing field c2"


def test_missing_sections():
    assert error_of("").message == "missing section [surface]"
    assert (
        error_of("[surface]\nkind = generic\ngram = -1\n").message
        == "missing section [bundle]"
    )


def test_asymmetric_gram():
    err = error_of("[surface]\nkind = generic\ngram = -2, 1; 0, -2\n")
    assert "not symmetric at (0,1)" in err.message
    assert err.line == 3


def test_c1_length_mismatch():
    err = error_of(
        "[surface]\nkind = generic\ngram = -1\n[bundle]\nrank = 2\nc1 = 1, 0\nc2 = 0\n"
    )
    assert err.message == "c1 length 2 does not match lattice rank 1"
    assert err.line == 6


def test_bad_tokens():
    assert "unknown kind" in error_of("[surface]\nkind = elliptic\ngram = -1\n").message
    assert "expected integer" in error_of(
        "[surface]\nkind = generic\ngram = -1\n[bundle]\nrank = 2\nc1 = 1\nc2 = x\n"
    ).message
    assert "expected true or false" in error_of(
        "[surface]\nkind = generic\ngram = -1\nvii_applicable = maybe\n"
        "[bundle]\nrank = 2\nc1 = 1\nc2 = 0\n"
    ).message


def test_structure_errors():
    assert "unknown section" in error_of("[shape]\n").message
    assert "unknown key" in error_of("[surface]\ncolour = red\n").message
    assert "duplicate key" in error_of("[surface]\nkind = k3\nkind = k3\n").message
    assert "duplicate section" in error_of("[surface]\n[surface]\n").message
    assert "outside any section" in error_of("kind = k3\n").message
    assert "malformed section" in error_of("[surface\n").message
    assert "key = value" in error_of("[surface]\nnonsense\n").message


def test_flag_validation():
    assert "unknown command" in error_of(MINIMAL_K3, command="solve").message
    assert "unknown format" in error_of(MINIMAL_K3, output_format="yaml").message
    assert "radius" in error_of(MINIMAL_K3, radius=0).message


def test_k3_structural_constraints():
    assert "even" in error_of("[surface]\nkind = k3\ngram = -1\n").message
    assert "chi_o" in error_of("[surface]\nkind = k3\ngram = -2\nchi_o = 1\n").message
    err = error_of(
        "[surface]\nkind = generic\ngram = -1\nanticanonical = 1, 2\n"
        "[bundle]\nrank = 2\nc1 = 1\nc2 = 0\n"
    )
    assert "anticanonical length" in err.message
