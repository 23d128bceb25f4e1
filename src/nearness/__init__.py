"""Nearness-context inference from opportunistic sensing traces.

A library plus CLI that fuses four sensing pipelines (radio proximity,
RSSI-derived relative distance, accelerometer motion, ambient sound level)
into per-minute pairwise propinquity and social-interaction scores, backed
by a deterministic multi-agent encounter simulator that doubles as the
ground-truth oracle.
"""

from .domain import DomainError, MinuteRecord, Nearness
from .engine import EngineConfig, RunResult, build_report, run_engine
from .fusion import FusionParams
from .ingest import ParseError, TraceSet, read_traces, write_traces
from .simulator import ConfigError, ScenarioConfig, generate, load_scenario
from .store import RecordLog, StoreError, export_csv

__version__ = "0.1.0"
