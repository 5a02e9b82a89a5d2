"""Block traces: container model, real-format parsers (SYSTOR'17 /
MSR Cambridge), calibrated synthetic VDI workload generators, and the
characterisation statistics behind Table 2 and Figs. 2/13."""

from .lint import Finding, has_errors, lint_trace
from .model import OP_READ, OP_TRIM, OP_WRITE, Trace
from .stats import TraceStats, across_page_ratio, characterize
from .synthetic import SyntheticSpec, VDIWorkloadGenerator, generate_trace
from .workload_spec import (
    Phase,
    WorkloadSpec,
    compile_workload,
    validate_spec,
)

__all__ = [
    "Trace",
    "OP_READ",
    "OP_WRITE",
    "OP_TRIM",
    "Phase",
    "WorkloadSpec",
    "compile_workload",
    "validate_spec",
    "Finding",
    "lint_trace",
    "has_errors",
    "TraceStats",
    "characterize",
    "across_page_ratio",
    "SyntheticSpec",
    "VDIWorkloadGenerator",
    "generate_trace",
]
