"""Request and outcome types.

A request arrives at a node and asks permission for an *event* — either a
topological change of the spanning tree or a plain (non-topological)
event such as "sell one ticket" (Section 2.2 notes controllers count any
event type; Section 2.2 also notes a plain event can be treated exactly
like a leaf insertion, which is why the controller handles them through
one code path).

Where a request arrives (Section 2.1.2):

* delete node ``u``        -> the request arrives at ``u``;
* add a node below ``v``   -> the request arrives at ``v`` (parent-to-be);
* split edge ``(v, w)``    -> the request arrives at ``v`` (the parent);
* plain event at ``u``     -> the request arrives at ``u``.
"""

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.errors import ControllerError
from repro.tree.node import TreeNode

_request_ids = itertools.count()


class RequestKind(Enum):
    """What the requesting entity wants to do once granted."""

    PLAIN = "plain"
    ADD_LEAF = "add_leaf"
    ADD_INTERNAL = "add_internal"
    REMOVE_LEAF = "remove_leaf"
    REMOVE_INTERNAL = "remove_internal"

    @property
    def is_topological(self) -> bool:
        return self is not RequestKind.PLAIN

    @property
    def is_removal(self) -> bool:
        return self in (RequestKind.REMOVE_LEAF, RequestKind.REMOVE_INTERNAL)


class OutcomeStatus(Enum):
    """Terminal states of a request."""

    GRANTED = "granted"
    REJECTED = "rejected"
    # The request's target vanished before it could be served (e.g. a
    # second deletion request for an already-deleted node).  Section 4.2
    # explicitly allows such requests to "lose their meaning".
    CANCELLED = "cancelled"
    # Terminating controllers queue requests instead of rejecting them
    # (Observation 2.1); PENDING is reported to the caller so application
    # layers can resubmit in their next iteration.
    PENDING = "pending"


@dataclass
class Request:
    """One request for a permit.

    ``node`` is where the request arrives.  For ``ADD_INTERNAL``, ``child``
    names the child of ``node`` whose edge is being split; for all other
    kinds ``child`` must be ``None``.
    """

    kind: RequestKind
    node: TreeNode
    child: Optional[TreeNode] = None
    request_id: int = field(default_factory=_request_ids.__next__)

    def __post_init__(self):
        if self.kind is RequestKind.ADD_INTERNAL:
            if self.child is None:
                raise ControllerError("ADD_INTERNAL requires a child edge")
        elif self.child is not None:
            raise ControllerError(f"{self.kind} takes no child argument")


@dataclass
class Outcome:
    """Result delivered to the requesting entity."""

    status: OutcomeStatus
    request: Request
    # For granted ADD_LEAF / ADD_INTERNAL: the node the environment created.
    new_node: Optional[TreeNode] = None
    # When the controller runs in interval mode (name assignment,
    # Section 5.2): the serial number of the granted permit.
    serial: Optional[int] = None

    @property
    def granted(self) -> bool:
        return self.status is OutcomeStatus.GRANTED

    @property
    def rejected(self) -> bool:
        return self.status is OutcomeStatus.REJECTED


def perform_event(tree, request: Request) -> Optional[TreeNode]:
    """Execute a granted request's event on the tree.

    This is the "requesting entity performs the topological change"
    step of the model; controllers call it at grant time.  Returns the
    newly created node for additions, ``None`` otherwise.
    """
    if request.kind is RequestKind.PLAIN:
        return None
    if request.kind is RequestKind.ADD_LEAF:
        return tree.add_leaf(request.node)
    if request.kind is RequestKind.ADD_INTERNAL:
        return tree.add_internal(request.node, request.child)
    if request.kind is RequestKind.REMOVE_LEAF:
        tree.remove_leaf(request.node)
        return None
    if request.kind is RequestKind.REMOVE_INTERNAL:
        tree.remove_internal(request.node)
        return None
    raise ControllerError(f"unknown request kind {request.kind}")
