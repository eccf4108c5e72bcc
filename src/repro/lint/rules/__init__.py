"""Built-in rules; importing this package registers them."""

from repro.lint.rules import (  # noqa: F401
    async_blocking,
    backend_contract,
    backend_parity,
    dtype_flow,
    int_width,
    mmap_copy,
    swallowed,
)
