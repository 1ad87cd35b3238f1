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
 */

#include <stdlib.h>
#include <time.h>

typedef unsigned __int128 bits;
/* Python buffers promise 8-byte alignment only. */
typedef bits word __attribute__((aligned(8)));

enum { OK, TIMEOUT, CAP, NOMEM };
#define CHECK_MASK 0x1FFF /* read the clock every 8192 nodes */
#define MAXBITS 128

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

/* ------------------------------------------------------------ pair BnB */

typedef struct {
    Search *s;
    const word *compat, *pred, *kill;
    bits rmask;
    int r_min, g_min, g_ge_f, cap_excess;
} Pair;

/* The score of an admissible family with rc members inside rmask, or -1.
   By pair_bnb's precondition, the capped members are child & partner. */
static int pair_score(const Pair *c, bits child, int fc, int rc, int gc, bits partner) {
    if (rc < c->r_min)
        return -1;
    if (c->cap_excess < 0)
        return fc + gc;
    int shared = pop(child & partner);
    int over = shared > c->cap_excess ? shared - c->cap_excess : 0;
    return gc - over < c->r_min ? -1 : fc + gc - over;
}

static void pair_rec(Pair *c, bits chosen, int fcount, int rcount, bits p, bits partner) {
    Search *s = c->s;
    if (tick(s))
        return;
    int gnode = pop(partner);
    while (p) {
        int i = low_index(p);
        bits low = (bits)1 << i;
        p ^= low;
        int ub = fcount + 1 + pop(p) + gnode;
        if (c->g_ge_f && 2 * gnode < ub)
            ub = 2 * gnode; /* |F| <= |partner| caps the sum at twice the partner */
        if (ub < s->best)
            return;
        if (c->pred[i] & ~chosen)
            continue;
        if (c->compat && (chosen & ~c->compat[i]))
            continue;
        bits child = chosen | low, child_partner = partner & ~c->kill[i];
        int fc = fcount + 1, gc = pop(child_partner);
        if (gc < c->g_min || (c->g_ge_f && gc < fc))
            continue;
        int rc = rcount + (int)(c->rmask >> i & 1);
        int g = pair_score(c, child, fc, rc, gc, child_partner);
        if (g >= 0) { /* -1 marks a skipped family */
            record(s, g, child);
            if (s->status)
                return;
        }
        bits child_p = c->compat ? p & c->compat[i] : p;
        int child_ub = fc + pop(child_p) + gc;
        if (c->g_ge_f && 2 * gc < child_ub)
            child_ub = 2 * gc;
        if (child_ub >= s->best) {
            pair_rec(c, child, fc, rc, child_p, child_partner);
            if (s->status)
                return;
        }
    }
}

/* rmask holds the candidates that count toward r_min: all of them for the
   pair kinds, those avoiding element 1 for shifted diversity.
   Precondition with a cap (cap_excess >= 0): the partner universe is the
   candidate universe, index for index. */
int pair_bnb(Search *s, int m, const word *compat, const word *pred, const word *kill,
             int ng, const word *rmask, int r_min, int g_min, int g_ge_f, int cap_excess) {
    Pair c = {s, compat, pred, kill, rmask[0], r_min, g_min, g_ge_f, cap_excess};
    s->best = -1;
    pair_rec(&c, 0, 0, 0, full(m), full(ng));
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

static void clique_expand(Clique *c, bits q, int qcount, int laycount, bits p) {
    Search *s = c->s;
    if (tick(s))
        return;
    if (!p) {
        if (c->cons == 1 && laycount < c->r)
            return;
        if (c->cons == 2 && laycount - max_degree(c->degs, c->nelems) < c->r)
            return;
        record(s, qcount, q);
        return;
    }
    /* greedy colouring: a clique inside a prefix of the order has at most
       the prefix's top colour vertices */
    unsigned char order[MAXBITS], colour[MAXBITS];
    int n = 0, col = 0;
    for (bits uncoloured = p; uncoloured;) {
        col++;
        for (bits avail = uncoloured; avail;) {
            int v = low_index(avail);
            avail ^= (bits)1 << v;
            uncoloured ^= (bits)1 << v;
            order[n] = (unsigned char)v;
            colour[n++] = (unsigned char)col;
            avail &= ~c->adj[v];
        }
    }
    /* Only down-sets are searched: a maximum feasible s-union family Q is
       one, since for B inside A in Q every B | C lies inside A | C, and both
       side constraints survive adding B.  Once v is passed over (branched on
       or skipped), later cliques avoid v, so a maximum one avoids v's
       supersets (sup[v]) too: they leave the candidates, while v's own
       subtree keeps them.  The callers number the vertices in descending
       mask order, so this walk, from the top index down, meets small sets
       first. */
    bits local_p = p;
    while (n--) {
        int v = order[n];
        if (!(local_p >> v & 1))
            continue;
        if (qcount + colour[n] < s->best)
            return;
        bits child_p = local_p & c->adj[v];
        local_p &= ~(c->sup[v] | (bits)1 << v);
        int in_layer = (int)(c->layer >> v & 1), lay2 = laycount + in_layer;
        int reach = lay2 + pop(child_p & c->layer);
        if (c->cons == 1 && reach < c->r)
            continue;
        if (c->cons == 2) {
            if (in_layer)
                add_degrees(c->degs, c->vmasks[v], 1);
            if (reach - max_degree(c->degs, c->nelems) < c->r) {
                if (in_layer)
                    add_degrees(c->degs, c->vmasks[v], -1);
                continue;
            }
        }
        clique_expand(c, q | (bits)1 << v, qcount + 1, lay2, child_p);
        if (c->cons == 2 && in_layer)
            add_degrees(c->degs, c->vmasks[v], -1);
        if (s->status)
            return;
    }
}

int clique_bnb(Search *s, int nverts, const word *adj, const word *sup, int cons_kind,
               const word *layer, const word *vmasks, int nelems, int r) {
    Clique c = {s, adj, sup, vmasks, layer[0], cons_kind, r, nelems, {0}};
    s->best = -1;
    clique_expand(&c, 0, 0, 0, full(nverts));
    return s->status;
}

/* ------------------------------------------------------- diversity BnB */

typedef struct {
    Search *s;
    const word *hcompat, *hmasks, *akill, *avoid;
    int r, nelems;
    int degs[MAXBITS + 1];
} Diversity;

/* deg_e(F) <= deg_1(F) = |A| for every e > 1: the chosen H members
   containing e are at most the A members avoiding e. */
static int diversity_feasible(const Diversity *c, bits amask) {
    for (int e = 2; e <= c->nelems; e++)
        if (c->degs[e] > pop(amask & c->avoid[e]))
            return 0;
    return 1;
}

static void diversity_rec(Diversity *c, bits chosen, int hcount, bits p, bits amask) {
    Search *s = c->s;
    if (tick(s))
        return;
    while (p) {
        int i = low_index(p);
        bits low = (bits)1 << i;
        p ^= low;
        if (hcount + 1 + pop(p) + pop(amask) < s->best)
            return;
        if (chosen & ~c->hcompat[i])
            continue;
        bits child = chosen | low, child_a = amask & ~c->akill[i];
        int hc2 = hcount + 1;
        add_degrees(c->degs, c->hmasks[i], 1);
        if (diversity_feasible(c, child_a)) {
            if (hc2 >= c->r)
                record(s, hc2 + pop(child_a), child);
            bits child_p = p & c->hcompat[i];
            if (!s->status && hc2 + pop(child_p) + pop(child_a) >= s->best)
                diversity_rec(c, child, hc2, child_p, child_a);
        }
        add_degrees(c->degs, c->hmasks[i], -1);
        if (s->status)
            return;
    }
}

int diversity_bnb(Search *s, int mh, const word *hcompat, const word *hmasks,
                  const word *akill, int na, const word *avoid_a, int r, int nelems) {
    Diversity c = {s, hcompat, hmasks, akill, avoid_a, r, nelems, {0}};
    s->best = -1;
    if (r <= 0)
        record(s, na, 0);
    if (!s->status)
        diversity_rec(&c, 0, 0, full(mh), full(na));
    return s->status;
}
