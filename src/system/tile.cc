#include "system/tile.hh"

namespace lacc {

// The L2 template configuration is instantiated once, here.
template class SetAssocCache<L2Meta, true>;

void
Tile::restoreFrom(const Tile &o)
{
    l1i.restoreFrom(o.l1i);
    l1d.restoreFrom(o.l1d);
    l2.restoreFrom(o.l2);
    missTracker.restoreFrom(o.missTracker);
    now = o.now;
    status = o.status;
    pending = o.pending;
    ifetchLine = o.ifetchLine;
    instrInLine = o.instrInLine;
    stats = o.stats;
}

} // namespace lacc
