"""One value per group: the tag that names and prints it (in JSON and on the
command line), its matrix check, the embedding of its apartment coordinates
into the special-linear apartment, and the signs its Weyl group gives."""

import enum

from .errors import InputError
from .matrices import _require_det_one
from .symplectic import _embed, _require_symplectic


class Group(enum.Enum):
    SL = ("sln", _require_det_one, tuple, (1,))
    SP = ("sp2n", _require_symplectic, _embed, (1, -1))

    def __init__(self, tag, require, embed, signs):
        self.tag, self.require, self.embed, self.signs = tag, require, embed, signs

    def __str__(self):
        return self.tag


GROUP_SL, GROUP_SP = Group.SL, Group.SP
#: Tag -> group, in the order the command line offers them.
GROUPS = {group.tag: group for group in Group}


def as_group(group) -> Group:
    """The group given as itself or by its tag; InputError for anything else."""
    if not isinstance(group, Group) and not (isinstance(group, str) and group in GROUPS):
        raise InputError(f"unknown group {group!r}")
    return GROUPS.get(group, group)
