"""Shared fixtures: the paper's running examples."""

import hashlib

import pytest

from repro.workloads import (
    book_document, book_dtdc, person_dept_export, person_dept_schema,
    person_dept_store, publisher_constraints, publisher_database,
    publisher_instance,
)


@pytest.fixture
def book():
    """(DTD^C, document) for the §2.4 book example."""
    return book_dtdc(), book_document()


@pytest.fixture
def book_schema():
    return book_dtdc()


@pytest.fixture
def persondept():
    """(DTD^C, document) for the §2.4 person/dept export D_o."""
    return person_dept_export()


@pytest.fixture
def persondept_store():
    return person_dept_store()


@pytest.fixture
def persondept_schema():
    return person_dept_schema()


@pytest.fixture
def publisher():
    """(database, constraints, instance) for the publisher example."""
    return (publisher_database(), publisher_constraints(),
            publisher_instance())


@pytest.fixture
def http_post():
    """``post(server, target, body)``: route one POST through a
    :class:`~repro.server.ValidationServer`'s HTTP layer (routing,
    query parameters, status mapping) without opening a socket."""
    from repro.server.http import HttpRequest

    def post(server, target: str, body: bytes):
        path, _, query = target.partition("?")
        params = dict(p.split("=", 1) for p in query.split("&") if p)
        return server._route_http(HttpRequest(
            "POST", path, params, {}, body, hashlib.sha256(body), True,
            [s for s in path.split("/") if s]))

    return post
