"""Property test of the config front door: a document built from the schema's
keys, with hostile values among them, either raises ParseError or
ValidationError or parses into a config that survives a serialize-parse
round trip. A NaN that slips through fails the round trip, since NaN != NaN.
No solve runs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bepo.config import _SCHEMA, RunConfig, parse_config, serialize_config
from bepo.errors import ParseError, ValidationError

HOSTILE = [
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
    "0", "-0", "-0.0", "-1", "-5", "5e-324", "1e308", "0.5", "1", "2", "9",
]

# a valid value for every key, so that whole documents also parse
VALID = dict(line.split(" = ", 1) for line in serialize_config(RunConfig()).splitlines())
VALID.update({"sim.burn_in": "10", "observable.eps0": "0.2", "sweep.values": "0.5, 1"})

NAMES = {
    "experiment": ["solve", "simulate", "crossing-sweep", "serviceability-sweep",
                   "convergence", "cross-validate"],
    "observable.kind": ["crossing", "band", "constant"],
    "mc.enabled": ["true", "false", "yes", "0"],
    "convergence.interior_only": ["true", "false", "no", "1"],
}

odd_strings = st.text(st.characters(blacklist_characters="\n"), max_size=12)
numbers = st.sampled_from(HOSTILE) | st.floats().map(repr) | st.integers().map(str)


def values(key):
    choices = [st.just(VALID[key]), numbers, odd_strings]
    if key in NAMES:
        choices.insert(0, st.sampled_from(NAMES[key]))
    if _SCHEMA[key][2] == "floatlist":
        choices.insert(0, st.lists(numbers, max_size=4).map(", ".join))
    return st.one_of(*choices)


@st.composite
def documents(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_SCHEMA)), unique=True, max_size=10))
    return "\n".join(f"{key} = {draw(values(key))}" for key in keys)


@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(documents())
def test_any_document_round_trips_or_fails_fast(text):
    try:
        cfg = parse_config(text)
    except (ParseError, ValidationError):
        return
    assert parse_config(serialize_config(cfg)) == cfg
