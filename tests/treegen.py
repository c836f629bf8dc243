"""Seeded random state-tree generators shared by the test modules."""

import string

from linkstate.statetree import _is_entry_list

CLASSES = ["ex.Counter", "ex.Label", "ex.Selection", "ex.Plot"]
NAMES = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
KEYS = ["title", "size", "count", "keys", "text", "flag", "items"]


class EntryList(list):
    """A generated entry list. The library reads it as the plain list it is;
    the class only lets mutate tell an empty entry list from an empty
    sequence, so both draw from the generator as they always have and the
    recorded corpora stay the same."""


def entry(name, cls, state):
    return {"objectName": name, "className": cls, "sessionState": state}


def random_scalar(rng):
    k = rng.randrange(6)
    if k == 0:
        return None
    if k == 1:
        return rng.random() < 0.5
    if k == 2:
        return rng.randint(-1000, 1000)
    if k == 3:
        return round(rng.uniform(-100.0, 100.0), 3)
    if k == 4:
        return ""
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))


def random_tree(rng, depth=3):
    if depth <= 0 or rng.random() < 0.35:
        return random_scalar(rng)
    k = rng.randrange(3)
    if k == 0:
        keys = rng.sample(KEYS, rng.randint(0, 4))
        return {key: random_tree(rng, depth - 1) for key in keys}
    if k == 1:
        return [random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return random_dsl(rng, depth)


def random_dsl(rng, depth=2):
    names = rng.sample(NAMES, rng.randint(0, 4))
    entries = []
    for name in names:
        if rng.random() < 0.1:
            entries.append(entry(name, "", None))  # global reference
        else:
            entries.append(entry(name, rng.choice(CLASSES), random_tree(rng, depth - 1)))
    if rng.random() < 0.15:
        entries.append(entry("", rng.choice(CLASSES), random_tree(rng, depth - 1)))
    return EntryList(entries)


def mutate(rng, node, depth=3):
    """Return a tree structurally related to node (local edits, drops, adds)."""
    if depth <= 0 or rng.random() < 0.2:
        return random_tree(rng, 2)
    if isinstance(node, EntryList) or _is_entry_list(node):
        out = []
        for e in node:
            name, cls, st = e.get("objectName", ""), e.get("className", ""), e.get("sessionState")
            r = rng.random()
            if r < 0.2:
                continue
            if r < 0.5:
                if cls and rng.random() < 0.2:
                    cls = rng.choice([c for c in CLASSES if c != cls])
                    st = random_tree(rng, depth - 1)
                elif cls:
                    st = mutate(rng, st, depth - 1)
            out.append(entry(name, cls, st))
        if rng.random() < 0.3:
            unused = [n for n in NAMES if n not in {e["objectName"] for e in out}]
            if unused:
                out.append(entry(rng.choice(unused), rng.choice(CLASSES), random_tree(rng, depth - 1)))
        if rng.random() < 0.3:
            rng.shuffle(out)
        return EntryList(out)
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            r = rng.random()
            if r < 0.2:
                continue
            out[key] = mutate(rng, value, depth - 1) if r < 0.5 else value
        if rng.random() < 0.3:
            unused = [k for k in KEYS if k not in out]
            if unused:
                out[rng.choice(unused)] = random_tree(rng, depth - 1)
        return out
    if isinstance(node, list):
        out = [mutate(rng, x, depth - 1) if rng.random() < 0.4 else x for x in node]
        if out and rng.random() < 0.2:
            out.pop(rng.randrange(len(out)))
        if rng.random() < 0.2:
            out.append(random_tree(rng, depth - 1))
        return out
    return random_scalar(rng) if rng.random() < 0.7 else node
