"""Every annotation in the ``repro`` package resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming something that was never imported only fails when a tool asks for
it (``typing.get_type_hints``, dataclass introspection, documentation
builders).  This test asks for all of them: every function and class
defined in every ``repro`` module, and every method, property, static and
class method of those classes.
"""

import importlib
import inspect
import pkgutil
import typing

import repro


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.split(".")[-1] == "__main__":
            continue
        yield importlib.import_module(info.name)


def _members(cls):
    for name, value in vars(cls).items():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        if inspect.isfunction(value):
            yield f"{cls.__qualname__}.{name}", value


def _annotated_objects():
    for module in _modules():
        for name, value in vars(module).items():
            if (not (inspect.isfunction(value) or inspect.isclass(value))
                    or value.__module__ != module.__name__):
                continue
            yield f"{module.__name__}.{name}", value
            if inspect.isclass(value):
                for member_name, member in _members(value):
                    yield f"{module.__name__}.{member_name}", member


def test_every_annotation_resolves():
    failures = []
    checked = 0
    for name, obj in _annotated_objects():
        checked += 1
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # noqa: BLE001 — report every failure
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert checked > 500
    assert not failures, "\n".join(failures)
