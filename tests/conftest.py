"""Shared fixtures: the paper's running examples."""

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
