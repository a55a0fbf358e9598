"""XML substrate: data model, parser, serializer, value semantics.

This package implements the paper's XML model (Appendix A): E/A/T nodes,
document order, value equality ``=v``, the total value order ``<v`` used
by Nested Merge, and the canonical string form used for fingerprinting.
"""

from .canonical import canonical_form, canonical_form_of_children
from .model import Attribute, Element, Node, Text, element
from .parser import XMLSyntaxError, parse_document, parse_file
from .serializer import (
    serialized_size,
    to_pretty_string,
    to_string,
    write_file,
)
from .xpath import XPathError, XPathResult, evaluate, xpath_first
from .value import (
    compare_values,
    sort_by_value,
    value_equal,
    value_less,
    value_list_equal,
)

__all__ = [
    "Attribute",
    "Element",
    "Node",
    "Text",
    "XMLSyntaxError",
    "XPathError",
    "XPathResult",
    "evaluate",
    "xpath_first",
    "canonical_form",
    "canonical_form_of_children",
    "compare_values",
    "element",
    "parse_document",
    "parse_file",
    "serialized_size",
    "sort_by_value",
    "to_pretty_string",
    "to_string",
    "value_equal",
    "value_less",
    "value_list_equal",
    "write_file",
]
