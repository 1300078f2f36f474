"""Simulator self-instrumentation: profile payloads and the bench guard."""
