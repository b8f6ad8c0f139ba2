"""Output checks of the serving benchmark, over the generator's event stream.

The generator logs, per live application and timestamped on the host's
monotonic clock, every grant it received (``grant``), every DONE it sent
with the IDs it released (``done``), its preemptible holdings against its
preemptive view (``pview``), any kill (``killed``) and its disconnect at
the end of the run (``closed``, logged before it is sent: the RMS frees
everything the app held, and may grant it to the others at once).  The
journal-restored population's grants come from ``population.tsv``
(``pop``).

A run fails when any of these is violated:

* no node ID is held by two live requests at once (restored IDs included);
* every non-preemptible grant has the requested size;
* a NEXT grow keeps its predecessor's IDs, and a shrink returns exactly
  the released ones;
* no application is killed unless it held more preemptible nodes than
  its view allowed for longer than the violation grace period.

A NEXT transition hands the unreleased IDs to a pending successor; the RMS
may trim them when the successor starts with fewer nodes.  A node granted
elsewhere while it sits in such a pending hand-over is a conflict only if
the successor's grant then still contains it.
"""

from collections import defaultdict

# Server::Config::violationGrace; coorm_rmsd does not change it.
VIOLATION_GRACE_NS = 5_000_000_000


def parse_ids(text):
    return set() if text == "-" else {int(x) for x in text.split(",")}


def parse_events(lines):
    """Events as tuples, sorted by time (population grants first)."""
    events = []
    for line in lines:
        f = line.split()
        if not f:
            continue
        kind, t = f[0], int(f[1])
        if kind == "grant":
            events.append((t, kind, f[2], int(f[3]), f[4], int(f[5]),
                           int(f[6]), f[7], parse_ids(f[8])))
        elif kind == "pop":
            events.append((t, kind, f[2], int(f[3]), parse_ids(f[4])))
        elif kind == "done":
            events.append((t, kind, f[2], int(f[3]), f[4] == "1",
                           parse_ids(f[5])))
        elif kind == "pview":
            events.append((t, kind, f[2], int(f[3]), int(f[4])))
        elif kind in ("killed", "closed"):
            events.append((t, kind, f[2]))
        else:
            raise ValueError("unknown event: " + line)
    events.sort(key=lambda e: (e[0], e[1] != "pop"))
    return events


class Checker:
    def __init__(self, grace_ns=VIOLATION_GRACE_NS):
        self.grace_ns = grace_ns
        self.owner = {}            # node -> chain key holding it
        self.held = {}             # (app, req) -> IDs of a live request
        self.granted = {}          # (app, req) -> IDs at its grant
        self.chain = {}            # (app, req) -> chain key
        self.handover = {}         # chain key -> IDs kept for a successor
        self.tentative = defaultdict(list)  # chain -> [(node, other chain)]
        self.pviews = defaultdict(list)     # app -> [(t, held, allowed)]
        self.errors = []

    def error(self, t, what):
        if len(self.errors) < 50:
            self.errors.append(f"t={t}: {what}")

    def free(self, chain, ids):
        for node in ids:
            if self.owner.get(node) == chain:
                del self.owner[node]

    def release_app(self, app):
        """Every ID `app` holds or keeps for a pending NEXT successor goes
        back to the pool (a kill or a disconnect)."""
        for key in [k for k in self.held if k[0] == app]:
            self.free(self.chain.get(key, key), self.held.pop(key))
        for chain in [c for c in self.handover if c[0] == app]:
            self.free(chain, self.handover.pop(chain))
            self.tentative.pop(chain, None)

    def grant(self, t, app, req, typ, size, pred, kind, ids):
        key = (app, req)
        chain = self.chain.get((app, pred), (app, pred)) if pred >= 0 else key
        self.chain[key] = chain
        if typ == "NP" and len(ids) != size:
            self.error(t, f"{app} req {req}: NP grant of {len(ids)} IDs, "
                          f"requested {size}")
        kept = self.handover.pop(chain, None)
        if kind in ("grow", "shrink"):
            before = self.granted.get((app, pred), set())
            if kind == "grow" and not before <= ids:
                self.error(t, f"{app} req {req}: NEXT grow dropped "
                              f"predecessor IDs {sorted(before - ids)}")
            if kind == "shrink" and ids != (kept or set()):
                self.error(t, f"{app} req {req}: NEXT shrink kept "
                              f"{sorted(ids)}, expected {sorted(kept or ())}")
        self.free(chain, (kept or set()) - ids)  # trimmed by the RMS: free now
        for node, other in self.tentative.pop(chain, []):
            if node in ids:
                self.error(t, f"node {node} double-granted: {other} and "
                              f"{chain}")
        for node in ids:
            holder = self.owner.get(node)
            if holder is not None and holder != chain:
                if node in self.handover.get(holder, ()):
                    self.tentative[holder].append((node, chain))
                else:
                    self.error(t, f"node {node} double-granted: {holder} "
                                  f"and {chain}")
            self.owner[node] = chain
        self.held[key] = ids
        self.granted[key] = ids

    def done(self, t, app, req, successor, released):
        key = (app, req)
        ids = self.held.pop(key, set())
        chain = self.chain.get(key, key)
        self.free(chain, ids & released if successor else ids)
        if successor:
            self.handover[chain] = ids - released

    def killed(self, t, app):
        history = self.pviews[app]
        since = t - self.grace_ns
        before = [h for h in history if h[0] <= since]
        during = [h for h in history if since < h[0] <= t]
        justified = bool(before) and before[-1][1] > before[-1][2] and all(
            held > allowed for _, held, allowed in during)
        if not justified:
            self.error(t, f"{app} killed without a preemptible-view violation "
                          f"lasting the grace period")
        self.release_app(app)

    def run(self, events):
        for e in events:
            kind = e[1]
            if kind == "grant":
                self.grant(e[0], *e[2:])
            elif kind == "pop":
                _, _, app, req, ids = e
                self.grant(0, "pop:" + app, req, "POP", len(ids), -1, "none",
                           ids)
            elif kind == "done":
                self.done(e[0], *e[2:])
            elif kind == "pview":
                self.pviews[e[2]].append((e[0], e[3], e[4]))
            elif kind == "killed":
                self.killed(e[0], e[2])
            elif kind == "closed":
                self.release_app(e[2])
        return self.errors


def check_lines(lines, grace_ns=VIOLATION_GRACE_NS):
    """Errors found in an event stream (empty list: the run passes)."""
    return Checker(grace_ns).run(parse_events(lines))
