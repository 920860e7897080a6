"""Alias of :mod:`repro.core.effects`, where ``Message`` lives."""

from repro.core.effects import DELIVERY_ORDER, Message, drain_tagged  # noqa: F401
