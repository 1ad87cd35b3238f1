/* Compiled twin of pykern.py: the same three branch-and-bound kernels, with
 * the same traversal order, node counts and maximizer order.  Loaded through
 * ctypes by fastcore.py, which documents the arguments and converts them.
 *
 * Every index set is one 128-bit word, so candidate universes hold at most
 * 128 entries.  Tables arrive as arrays of 16-byte little-endian words taken
 * from Python bytes objects.  Each kernel fills a Search record and returns
 * its status.  A maximizer is one word, the index set of the chosen
 * candidates; what the tables fix (a pair's partner, a diversity family's A
 * side) is rebuilt by the caller.  The maximizers go into a realloc-grown
 * array that the caller releases with fastcore_free.  No kernel touches a
 * Python object, so the calls run without the interpreter lock.
 *
 * pair_bnb and diversity_bnb are two entry points of one partner search,
 * partner_rec, as in pykern: a chosen family's partner is every member of a
 * second universe that no chosen member kills, and the walk maximizes
 * |F| + |partner|.  diversity_bnb maps its tables onto it (H the family, A
 * the partner) and passes the degree cap.  Both may pass the candidates'
 * element sets, which turn on the orbit rule: at every node the walk drops
 * the whole orbit of each candidate it has handled, under the relabelings
 * that fix the chosen members, as pykern's module docstring argues.  The
 * walk applies each only when it is passed; it never asks which problem it
 * solves.  clique_bnb is a search of its own.
 *
 * Precondition: the compat table (hcompat for diversity_bnb) is symmetric.
 * Each descent narrows the candidates to the new member's row, so every
 * remaining candidate is compatible with every chosen member, and the walk
 * does not test that again.
 *
 * The partner search tests each node on entry against the deficiency bound
 * of pykern's module docstring: |F| + |partner| + |p| - nu, nu the size of
 * a maximum matching from the remaining candidates p into the partner along
 * the kill rows.  nu depends on the node alone, so the cut does not depend
 * on how either twin grows its matching.  Each node passes down the members
 * its candidates reach, and a descendant matches only when those that lie in
 * its partner number at least want.  It also takes the order rows succ:
 * once its walk has passed over candidate i, the later siblings drop the
 * candidates that require i, which keeps every family it reaches a down-set
 * under the precondition of pykern's module docstring.
 */

#include <stdlib.h>
#include <time.h>

typedef unsigned __int128 bits;
/* Python buffers promise 8-byte alignment only. */
typedef bits word __attribute__((aligned(8)));

enum { OK, TIMEOUT, CAP, NOMEM };
#define CHECK_MASK 0x1FFF /* read the clock every 8192 nodes */
#define MAXBITS 128 /* setfam.engines.MAX_BITS, which fastcore.py checks */

typedef struct {
    double deadline;  /* CLOCK_MONOTONIC seconds, as Python's time.monotonic */
    long long cap;    /* most ties of the running incumbent kept */
    long long nodes;
    long long count;  /* maximizers in items */
    long long alloc;  /* words allocated in items */
    bits *items;      /* count maximizers, one index-set word each */
    int best;
    int status;
} Search;

void fastcore_free(void *p) { free(p); }

static int pop(bits x) {
    return __builtin_popcountll((unsigned long long)x)
         + __builtin_popcountll((unsigned long long)(x >> 64));
}

/* The index of the lowest set bit of x != 0. */
static int low_index(bits x) {
    unsigned long long lo = (unsigned long long)x;
    return lo ? __builtin_ctzll(lo) : 64 + __builtin_ctzll((unsigned long long)(x >> 64));
}

static bits full(int n) { return n >= MAXBITS ? ~(bits)0 : ((bits)1 << n) - 1; }

static double now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/* Count a node; nonzero once the search must stop. */
static int tick(Search *s) {
    s->nodes++;
    if ((s->nodes & CHECK_MASK) == 0 && now() > s->deadline)
        s->status = TIMEOUT;
    return s->status;
}

/* Append one maximizer; nonzero once the search must stop. */
static int push(Search *s, bits item) {
    if (s->count >= s->cap)
        return s->status = CAP;
    if (s->count == s->alloc) {
        long long n = s->alloc ? 2 * s->alloc : 64;
        bits *grown = realloc(s->items, (size_t)n * sizeof(bits));
        if (!grown)
            return s->status = NOMEM;
        s->items = grown;
        s->alloc = n;
    }
    s->items[s->count++] = item;
    return 0;
}

/* A better value restarts the maximizer list, a tie extends it. */
static void record(Search *s, int value, bits item) {
    if (value > s->best) {
        s->best = value;
        s->count = 0;
    }
    if (value == s->best)
        push(s, item);
}

static void add_degrees(int *degs, bits mask, int delta) {
    for (; mask; mask &= mask - 1)
        degs[low_index(mask) + 1] += delta;
}

static int max_degree(const int *degs, int nelems) {
    int d = 0;
    for (int e = 1; e <= nelems; e++)
        if (degs[e] > d)
            d = degs[e];
    return d;
}

/* Whether the candidates in p match into right with want pairs, candidate i
   to a member of rows[i] & right: a greedy pass, then one augmenting path
   (Kuhn) per candidate left over, each found breadth-first in layers of
   bitsets.  It stops once want pairs are made, or once want exceeds the
   members that any candidate reaches, or the pairs made plus the candidates
   not yet tried: a candidate that finds no augmenting path never finds one
   after other paths are augmented.  When it returns 0, *reached holds the
   members of right that some candidate reaches, which every descendant's
   candidates reach inside its own partner, as pykern's _matching says. */
static int matching(bits p, const word *rows, bits right, int want, bits *reached) {
    unsigned char owner[MAXBITS]; /* owner[j]: the candidate matched to member j */
    bits layers[MAXBITS];         /* layers[d]: matched members first reached through d others */
    bits avail = right;           /* the members not yet matched */
    bits covered = 0;             /* the members some candidate reaches */
    bits rest = 0;                /* the candidates the greedy pass left unmatched */
    int size = 0;
    for (; p; p &= p - 1) {
        int i = low_index(p);
        bits reach = rows[i] & right, free = reach & avail;
        covered |= reach;
        if (free) {
            free &= -free;
            avail ^= free;
            owner[low_index(free)] = (unsigned char)i;
            if (++size >= want)
                return 1;
        } else if (reach) {
            rest |= (bits)1 << i;
        }
    }
    *reached = covered;
    if (pop(covered) < want)
        return 0;
    for (int left = pop(rest); rest; rest &= rest - 1, left--) {
        if (size + left < want)
            return 0;
        int i = low_index(rest), depth = 0;
        bits seen = rows[i] & right, frontier = seen, free = 0;
        while (frontier && !free) {
            layers[depth++] = frontier;
            bits next = 0;
            for (; frontier; frontier &= frontier - 1)
                next |= rows[owner[low_index(frontier)]];
            frontier = next & right & ~seen;
            seen |= frontier;
            free = frontier & avail;
        }
        if (!free)
            continue;
        bits f = free & -free;
        avail ^= f;
        while (depth--) { /* walk the path back, shifting each owner along it */
            bits j = layers[depth];
            while (!(rows[owner[low_index(j)]] & f))
                j &= j - 1;
            j &= -j;
            owner[low_index(f)] = owner[low_index(j)];
            f = j;
        }
        owner[low_index(f)] = (unsigned char)i;
        if (++size >= want)
            return 1;
    }
    return 0;
}

/* --------------------------------------------------------- partner BnB */

/* The one walk behind pair_bnb and diversity_bnb, pykern's _partner_search.
   The degree cap (slots, avoid) and the orbit rule (masks) are left out when
   they are not passed: slots NULL, masks NULL. */
typedef struct {
    Search *s;
    const word *compat, *succ, *kill;
    const word *slots, *avoid; /* the degree cap, or slots NULL */
    const word *masks;         /* the candidates' element sets, or NULL */
    bits rmask;
    int m, r_min, g_min, g_ge_f, cap_excess, nelems;
    int degs[MAXBITS + 1];
    bits holding[MAXBITS]; /* holding[e]: the candidates whose element set holds e */
} Partner;

/* The score of an admissible family with rc members inside rmask, or -1.
   By pair_bnb's precondition, the capped members are child & partner. */
static int partner_score(const Partner *c, bits child, int fc, int rc, int gc, bits partner) {
    if (rc < c->r_min)
        return -1;
    if (c->cap_excess < 0)
        return fc + gc;
    int shared = pop(child & partner);
    int over = shared > c->cap_excess ? shared - c->cap_excess : 0;
    return gc - over < c->r_min ? -1 : fc + gc - over;
}

/* The degree cap: for every element e, the chosen members holding e are at
   most the partner members in avoid[e]. */
static int degrees_fit(const Partner *c, bits partner) {
    for (int e = 1; e <= c->nelems; e++)
        if (c->degs[e] > pop(partner & c->avoid[e]))
            return 0;
    return 1;
}

/* A node's atoms, pykern's _Orbits: atoms[0] is the union of the atoms of
   one element, atoms[1..natoms-1] the others, and natoms is 0 once every
   atom has one element (the group is trivial) or without the orbit rule. */

/* The candidates of p in candidate i's orbit: those that agree with i on
   atoms[0], one AND per element, and meet every other atom in as many
   elements as i does, counted over the atom's elements (exact[t]: the
   candidates meeting the elements counted so far in t). */
static bits orbit(const Partner *c, const bits *atoms, int natoms, int i, bits p) {
    bits mask = c->masks[i];
    for (bits f = atoms[0]; f && p; f &= f - 1) {
        int e = low_index(f);
        p &= mask >> e & 1 ? c->holding[e] : ~c->holding[e];
    }
    for (int a = 1; a < natoms && p; a++) {
        int want = pop(mask & atoms[a]);
        bits exact[want + 1];
        exact[0] = p;
        for (int t = 1; t <= want; t++)
            exact[t] = 0;
        for (bits f = atoms[a]; f; f &= f - 1) {
            bits rows = c->holding[low_index(f)];
            for (int t = want; t > 0; t--)
                exact[t] = (exact[t] & ~rows) | (exact[t - 1] & rows);
            exact[0] &= ~rows;
        }
        p = exact[want];
    }
    return p;
}

/* The atoms below a node, once a member with element set mask is chosen;
   returns their count. */
static int split(const bits *atoms, int natoms, bits mask, bits *below) {
    int n = 1;
    below[0] = atoms[0];
    for (int a = 1; a < natoms; a++) {
        bits parts[2] = {atoms[a] & mask, atoms[a] & ~mask};
        for (int k = 0; k < 2; k++) {
            if (parts[k] & (parts[k] - 1))
                below[n++] = parts[k];
            else
                below[0] |= parts[k];
        }
    }
    return n > 1 ? n : 0;
}

/* Once the walk has handled candidate i (searched its subtree, or skipped
   it) it drops i's whole orbit under the node's group: the orbit exclusion
   of pykern's module docstring. */
static void partner_rec(Partner *c, bits chosen, int fcount, int rcount, bits p, bits partner,
                        bits reach, const bits *atoms, int natoms) {
    Search *s = c->s;
    if (tick(s))
        return;
    int gnode = pop(partner), pcount = pop(p);
    /* the deficiency bound: cut when nu >= want; nu <= |N(p)|, and N(p) lies
       inside the ancestors' reach sets */
    int want = fcount + gnode + pcount - s->best + 1;
    if (want <= pcount) {
        reach &= partner;
        if (want <= pop(reach) && matching(p, c->kill, partner, want, &reach))
            return;
    }
    bits below[natoms ? 2 * natoms : 1]; /* the atoms of each child in turn */
    while (p) {
        int i = low_index(p);
        bits low = (bits)1 << i;
        p ^= low;
        int ub = fcount + 1 + pop(p) + gnode;
        if (c->g_ge_f && 2 * gnode < ub)
            ub = 2 * gnode; /* |F| <= |partner| caps the sum at twice the partner */
        if (ub < s->best)
            return;
        bits here = p; /* i's own subtree keeps the candidates that require i, and i's orbit */
        p &= ~c->succ[i];
        if (natoms)
            p &= ~orbit(c, atoms, natoms, i, p);
        bits child = chosen | low, child_partner = partner & ~c->kill[i];
        int fc = fcount + 1, gc = pop(child_partner);
        if (gc < c->g_min || (c->g_ge_f && gc < fc))
            continue;
        if (c->slots) {
            add_degrees(c->degs, c->slots[i], 1);
            if (!degrees_fit(c, child_partner)) {
                add_degrees(c->degs, c->slots[i], -1);
                continue;
            }
        }
        int rc = rcount + (int)(c->rmask >> i & 1);
        int g = partner_score(c, child, fc, rc, gc, child_partner);
        if (g >= 0) /* -1 marks a skipped family */
            record(s, g, child);
        bits child_p = c->compat ? here & c->compat[i] : here;
        int child_ub = fc + pop(child_p) + gc;
        if (c->g_ge_f && 2 * gc < child_ub)
            child_ub = 2 * gc;
        if (!s->status && child_ub >= s->best)
            partner_rec(c, child, fc, rc, child_p, child_partner, reach, below,
                        natoms ? split(atoms, natoms, c->masks[i], below) : 0);
        if (c->slots)
            add_degrees(c->degs, c->slots[i], -1);
        if (s->status)
            return;
    }
}

/* Fill the holding rows and run the walk from the root, whose one atom is
   the union of the element sets. */
static void partner_root(Partner *c, int ng) {
    bits root[2] = {0, 0};
    if (c->masks)
        for (int i = 0; i < c->m; i++) {
            root[1] |= c->masks[i];
            for (bits f = c->masks[i]; f; f &= f - 1)
                c->holding[low_index(f)] |= (bits)1 << i;
        }
    partner_rec(c, 0, 0, 0, full(c->m), full(ng), full(ng), root,
                root[1] & (root[1] - 1) ? 2 : 0);
}

/* rmask holds the candidates that count toward r_min: all of them for the
   pair kinds, those avoiding element 1 for shifted diversity.  succ[i] holds
   the candidates that require i.  masks is NULL, or the candidates'
   element sets when every table is unchanged by relabeling their union.
   Precondition with a cap (cap_excess >= 0): the partner universe is the
   candidate universe, index for index. */
int pair_bnb(Search *s, int m, const word *compat, const word *succ, const word *kill, int ng,
             const word *rmask, int r_min, int g_min, int g_ge_f, int cap_excess,
             const word *masks) {
    Partner c = {.s = s, .compat = compat, .succ = succ, .kill = kill,
                 .masks = masks, .rmask = rmask[0], .m = m, .r_min = r_min, .g_min = g_min,
                 .g_ge_f = g_ge_f, .cap_excess = cap_excess};
    s->best = -1;
    partner_root(&c, ng);
    return s->status;
}

/* The walk on the diversity tables: A is H's partner along the akill rows,
   there are no order rows, every candidate counts toward r, hmasks and
   avoid_a are the degree cap deg_e(F) <= deg_1(F) = |A|, and the empty H
   is the maximizer seeded for r <= 0.  With symmetric, hmasks are also the
   element sets of the orbit rule, whose root step branches on candidate 0
   only. */
int diversity_bnb(Search *s, int mh, const word *hcompat, const word *hmasks, const word *akill,
                  int na, const word *avoid_a, int r, int nelems, int symmetric) {
    static const word none[MAXBITS];
    Partner c = {.s = s, .compat = hcompat, .succ = none, .kill = akill,
                 .slots = hmasks, .avoid = avoid_a, .masks = symmetric ? hmasks : NULL,
                 .rmask = full(mh), .m = mh, .r_min = r, .cap_excess = -1, .nelems = nelems};
    s->best = -1;
    if (r <= 0)
        record(s, na, 0);
    if (!s->status)
        partner_root(&c, na);
    return s->status;
}

/* ---------------------------------------------------------- clique BnB */

typedef struct {
    Search *s;
    const word *adj, *sup, *vmasks;
    bits layer;
    int cons, r, nelems;
    int degs[MAXBITS + 1];
} Clique;

/* Nonzero only when no clique within the chosen vertices and p meets the
   side constraint; laycount and c->degs count the chosen.  Exact when p is
   empty. */
static int infeasible(const Clique *c, int laycount, bits p) {
    int reach = laycount + pop(p & c->layer);
    if (c->cons == 1)
        return reach < c->r;
    return c->cons == 2 && reach - max_degree(c->degs, c->nelems) < c->r;
}

static void clique_expand(Clique *c, bits q, int qcount, int laycount, bits p) {
    Search *s = c->s;
    if (tick(s))
        return;
    /* Greedy colouring: a clique inside a prefix of the order has at most
       the prefix's top colour vertices.  A vertex adjacent to every other
       candidate is forced: it would close a class of its own, so it takes no
       colour and joins q at once.  Every maximal clique below the node holds
       it, and both side constraints survive adding a vertex, so they are
       tested again on the result. */
    unsigned char order[MAXBITS], colour[MAXBITS];
    int n = 0, col = 0;
    bits forced = 0;
    for (bits uncoloured = p; uncoloured;) {
        int v = low_index(uncoloured);
        if (!(p & ~(c->adj[v] | (bits)1 << v))) {
            forced |= (bits)1 << v;
            uncoloured ^= (bits)1 << v;
            continue;
        }
        col++;
        for (bits avail = uncoloured; avail;) {
            v = low_index(avail);
            avail ^= (bits)1 << v;
            uncoloured ^= (bits)1 << v;
            order[n] = (unsigned char)v;
            colour[n++] = (unsigned char)col;
            avail &= ~c->adj[v];
        }
    }
    p ^= forced;
    q |= forced;
    qcount += pop(forced);
    bits flay = forced & c->layer;
    laycount += pop(flay);
    if (c->cons == 2)
        for (bits f = flay; f; f &= f - 1)
            add_degrees(c->degs, c->vmasks[low_index(f)], 1);
    if (infeasible(c, laycount, p))
        n = 0; /* walk nothing */
    else if (!p) /* feasible: the test after forcing saw exactly q */
        record(s, qcount, q);
    /* Only down-sets are searched: a maximum feasible s-union family Q is
       one, since for B inside A in Q every B | C lies inside A | C, and both
       side constraints survive adding B.  Once v is passed over (branched on
       or skipped), later cliques avoid v, so a maximum one avoids v's
       supersets (sup[v]) too: they leave the candidates, while v's own
       subtree keeps them.  The callers number the vertices in descending
       mask order, so this walk, from the top index down, meets small sets
       first.  Once the subtree of a v adjacent to every other candidate
       still in local_p has been searched, the walk stops: a later sibling
       only reaches cliques that avoid v and lie inside q and local_p, so
       each of them plus v is a larger clique, still feasible, as both side
       constraints survive adding a vertex.  A v skipped by the side
       constraints does not stop it. */
    bits local_p = p;
    while (n--) {
        int v = order[n];
        if (!(local_p >> v & 1))
            continue;
        if (qcount + colour[n] < s->best)
            break;
        bits child_p = local_p & c->adj[v];
        int last = !(local_p & ~(c->adj[v] | (bits)1 << v));
        local_p &= ~(c->sup[v] | (bits)1 << v);
        int in_layer = (int)(c->layer >> v & 1), bump = c->cons == 2 && in_layer;
        if (bump)
            add_degrees(c->degs, c->vmasks[v], 1);
        int entered = !infeasible(c, laycount + in_layer, child_p);
        if (entered)
            clique_expand(c, q | (bits)1 << v, qcount + 1, laycount + in_layer, child_p);
        if (bump)
            add_degrees(c->degs, c->vmasks[v], -1);
        if (s->status || (entered && last))
            break;
    }
    if (c->cons == 2)
        for (bits f = flay; f; f &= f - 1)
            add_degrees(c->degs, c->vmasks[low_index(f)], -1);
}

int clique_bnb(Search *s, int nverts, const word *adj, const word *sup, int cons_kind,
               const word *layer, const word *vmasks, int nelems, int r) {
    Clique c = {s, adj, sup, vmasks, layer[0], cons_kind, r, nelems, {0}};
    s->best = -1;
    clique_expand(&c, 0, 0, 0, full(nverts));
    return s->status;
}
