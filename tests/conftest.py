import importlib.resources
import json
import os

import jsonschema
import pytest

from ramsey_lab import GraphParams, complete_layered, generate_random


def random_graph(k, m, p, seed):
    return generate_random(GraphParams(k=k, part_size=m, edge_prob=p, seed=seed))


def contradiction_consistent(audit) -> bool:
    """A ``CertificateAudit``'s checks are consistent: (d) holds, and (b) and
    (c) force (e); False flags an accounting leak."""
    return audit.extension_budget_ok and (
        audit.minority_ok or not (audit.per_round_ok and audit.meeting_ok)
    )


def load_schema(name: str) -> dict:
    """One of the package's ``<name>.schema.json`` documents."""
    ref = importlib.resources.files("ramsey_lab.schemas").joinpath(f"{name}.schema.json")
    return json.loads(ref.read_text())


def validate_document(doc: dict, schema_name: str) -> None:
    """Raise jsonschema.ValidationError when doc does not match the schema."""
    jsonschema.validate(doc, load_schema(schema_name))


@pytest.fixture
def tiny_complete():
    return complete_layered(3, 2)


@pytest.fixture
def beyond_memory():
    """(k, m) of a p = 1 host whose store of m**k cycle keys exceeds physical
    memory in both layouts: its smaller one, a row per prefix path (m**(k-1)
    of them, 16 bytes each), takes 410 GB.  Fails up front on a host that
    could hold it, rather than letting the test enumerate it."""
    k, m = 5, 400
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert 16 * m ** (k - 1) > physical, f"{physical} bytes of memory could hold the store"
    return k, m
