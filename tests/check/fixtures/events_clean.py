"""Idiomatic counterpart: vocabulary and emissions in sync."""


class EventBase:  # deliberately not named Event: see events_bad.py
    pass


class Event(EventBase):
    pass


class TickEvent(Event):
    pass


def run(bus):
    bus.probe(TickEvent())
    pre_built = TickEvent()
    bus.emit(pre_built)  # variable payloads are fine


def serve(bus):
    bus(TickEvent())  # direct EventBus dispatch
