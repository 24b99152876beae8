"""Parallel-safety certificates for operator kernels.

A certificate is the machine-readable verdict of the static analyzer
(:mod:`repro.analysis.purity`) about one operator class:

* ``pure`` -- the kernel methods (``evaluate`` / ``work_profile`` /
  ``mask``) have no effects visible outside the call: no in-place write
  to shared input buffers, no instance or module state.  Pure kernels
  are safe to dispatch on evaluation-pool worker threads.
* ``view_returning`` -- the kernel can return a numpy **view** aliasing
  an input buffer (zero-copy fast paths).  Harmless for threads, which
  share the address space.

The :class:`CertificateRegistry` is what the evaluation pool consults,
**fail-closed**: an operator with no certificate -- or a certificate
with findings -- is never evaluated off the main thread
(:class:`~repro.errors.UncertifiedKernelError`).  Unknown classes (e.g.
operators defined in tests) are certified on demand from their source;
classes whose source cannot be read stay uncertified.
"""

from __future__ import annotations

import ast
import inspect
import json
import textwrap
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..errors import UncertifiedKernelError
from .purity import (
    KERNEL_METHODS,
    analyze_kernel,
    module_mutable_globals,
)
from .source import parse_file

#: Bumped when the certificate semantics change (2: the two fields of
#: the process-backend tier are gone).
CERTIFICATE_VERSION = 2


@dataclass(frozen=True)
class OperatorCertificate:
    """The analyzer's parallel-safety verdict for one operator class."""

    operator: str
    module: str
    pure: bool
    view_returning: bool
    #: Human-readable findings when not pure (empty for pure kernels).
    issues: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "module": self.module,
            "pure": self.pure,
            "view_returning": self.view_returning,
            "issues": list(self.issues),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "OperatorCertificate":
        return cls(
            operator=doc["operator"],
            module=doc["module"],
            pure=bool(doc["pure"]),
            view_returning=bool(doc["view_returning"]),
            issues=tuple(doc.get("issues", ())),
        )


# Parsed module globals, cached per source file (host-side cache; the
# registry itself guards concurrent access with its lock).
_module_globals_cache: dict[str, set[str]] = {}
_module_globals_lock = threading.Lock()


def _globals_for_source_file(path: str | None) -> set[str]:
    if path is None:
        return set()
    with _module_globals_lock:
        cached = _module_globals_cache.get(path)
        if cached is not None:
            return cached
    try:
        module = parse_file(path)
        names = module_mutable_globals(module)
    except Exception:
        names = set()
    with _module_globals_lock:
        _module_globals_cache[path] = names
    return names


def _kernel_functions(cls: type) -> Iterable[tuple[str, Any]]:
    """(name, function) for each kernel method, resolved through the MRO."""
    for name in KERNEL_METHODS:
        for base in cls.__mro__:
            if name in vars(base):
                func = inspect.unwrap(vars(base)[name])
                if not getattr(func, "__isabstractmethod__", False):
                    yield name, func
                break


def certify_type(cls: type) -> OperatorCertificate:
    """Statically certify one operator class from its source."""
    issues: list[str] = []
    view_returning = False
    analyzed_any = False
    for name, func in _kernel_functions(cls):
        try:
            src = textwrap.dedent(inspect.getsource(func))
            tree = ast.parse(src)
        except (OSError, TypeError, SyntaxError) as exc:
            issues.append(f"{name}: source unavailable ({exc})")
            continue
        node = tree.body[0]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            issues.append(f"{name}: not a plain function")
            continue
        analyzed_any = True
        try:
            source_file = inspect.getsourcefile(func)
        except TypeError:
            source_file = None
        effects = analyze_kernel(node, _globals_for_source_file(source_file))
        # Only evaluate/mask results become intermediates; work_profile
        # returns counters, so its return expressions cannot alias.
        if name != "work_profile":
            view_returning = view_returning or effects.view_return
        for _line, desc in effects.inplace_writes:
            issues.append(f"{name}: in-place write to shared input ({desc})")
        for _line, desc in effects.mutating_calls:
            issues.append(f"{name}: mutating call on shared input ({desc})")
        for _line, desc in effects.module_writes:
            issues.append(f"{name}: writes module-level state ({desc})")
        for _line, desc in effects.self_writes:
            issues.append(f"{name}: mutates instance state ({desc})")
    if not analyzed_any and not issues:
        issues.append("no analyzable kernel methods found")
    return OperatorCertificate(
        operator=cls.__name__,
        module=cls.__module__,
        pure=analyzed_any and not issues,
        view_returning=view_returning,
        issues=tuple(issues),
    )


class CertificateRegistry:
    """All known certificates, keyed by operator class name.

    ``get`` certifies unknown classes on demand so operators defined in
    tests work without pre-registration; classes whose source cannot be
    analyzed simply stay impure, which the fail-closed gate rejects.
    """

    def __init__(
        self, certificates: Iterable[OperatorCertificate] = ()
    ) -> None:
        self._by_class: dict[type, OperatorCertificate] = {}
        self._by_name: dict[str, OperatorCertificate] = {}
        self._lock = threading.Lock()
        for cert in certificates:
            self._by_name[cert.operator] = cert

    def get(self, cls: type) -> OperatorCertificate:
        with self._lock:
            cert = self._by_class.get(cls)
            if cert is None:
                # Prefer a class match; fall back to a name match only
                # for certificates loaded from JSON (no class object).
                cert = self._by_name.get(cls.__name__)
            if cert is not None:
                self._by_class.setdefault(cls, cert)
                return cert
        cert = certify_type(cls)
        with self._lock:
            self._by_class[cls] = cert
            self._by_name.setdefault(cert.operator, cert)
        return cert

    def check(self, op: Any) -> OperatorCertificate:
        """Gate one operator instance; raise fail-closed unless pure."""
        cert = self.get(type(op))
        if not cert.pure:
            detail = "; ".join(cert.issues) or "no certificate"
            raise UncertifiedKernelError(
                f"refusing to dispatch {type(op).__name__} off the main "
                f"thread: {detail} (run with workers=1, or fix the kernel "
                "and re-run `repro analyze`)"
            )
        return cert

    def certificates(self) -> list[OperatorCertificate]:
        with self._lock:
            merged = dict(self._by_name)
            for cert in self._by_class.values():
                merged[cert.operator] = cert
        return sorted(merged.values(), key=lambda c: c.operator)

    def to_document(self) -> dict[str, Any]:
        return {
            "version": CERTIFICATE_VERSION,
            "certificates": [c.to_dict() for c in self.certificates()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_document(cls, doc: Mapping[str, Any]) -> "CertificateRegistry":
        return cls(
            OperatorCertificate.from_dict(entry)
            for entry in doc.get("certificates", ())
        )


def registered_operator_classes() -> list[type]:
    """Every concrete Operator subclass exported by :mod:`repro.operators`."""
    import repro.operators as ops

    classes = []
    for name in ops.__all__:
        obj = getattr(ops, name)
        if (
            isinstance(obj, type)
            and issubclass(obj, ops.Operator)
            and not inspect.isabstract(obj)
        ):
            classes.append(obj)
    return classes


def build_registry() -> CertificateRegistry:
    """Certify every registered operator from source."""
    registry = CertificateRegistry()
    for cls in registered_operator_classes():
        registry.get(cls)
    return registry


_default_registry: CertificateRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> CertificateRegistry:
    """The lazily-built process-wide registry the evaluation pool uses."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = build_registry()
        return _default_registry
