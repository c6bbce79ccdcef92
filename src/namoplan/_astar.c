/* 8-connected A* over a padded occupancy mask, the search behind
 * `planner._astar_on_mask`.
 *
 * The mask is flat and row-major, `pw` cells to a row, with a ring of
 * blocked cells around the map; nonzero is blocked. It doubles as the
 * closed set, so the search writes into it. Costs, the octile heuristic
 * and the heap order (f, turns, push counter) are computed with the same
 * IEEE double steps as a per-cell search over (x, y) in Python, and the
 * moves keep the order of `planner._MOVES`, so ties break the same way and
 * the path is bit-identical. The order is total because the counter is
 * unique, so this heap pops what Python's `heapq` pops. Build it without
 * floating-point contraction: a fused multiply-add rounds once where
 * Python rounds twice.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define SQRT2 1.4142135623730951 /* math.sqrt(2), the nearest double */

typedef struct {
    double f;
    double turns;
    int64_t counter;
    int64_t cell;
} Entry;

typedef struct {
    Entry *items;
    size_t len;
    size_t cap;
} Heap;

/* Whether `a` pops before `b`: Python's tuple order on (f, turns, counter). */
static int before(const Entry *a, const Entry *b)
{
    if (a->f != b->f)
        return a->f < b->f;
    if (a->turns != b->turns)
        return a->turns < b->turns;
    return a->counter < b->counter;
}

/* Push `e`; 0 on success, -1 when the heap cannot grow. */
static int push(Heap *h, Entry e)
{
    size_t i;
    if (h->len == h->cap) {
        size_t cap = h->cap ? 2 * h->cap : 1024;
        Entry *items;
        if (cap > SIZE_MAX / sizeof(Entry))
            return -1;
        items = realloc(h->items, cap * sizeof(Entry));
        if (!items)
            return -1;
        h->items = items;
        h->cap = cap;
    }
    i = h->len++;
    while (i > 0 && before(&e, &h->items[(i - 1) / 2])) {
        h->items[i] = h->items[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    h->items[i] = e;
    return 0;
}

/* Remove and return the first entry of a nonempty heap. */
static Entry pop(Heap *h)
{
    Entry top = h->items[0];
    Entry last = h->items[--h->len];
    size_t i = 0;
    for (;;) {
        size_t c = 2 * i + 1;
        if (c >= h->len)
            break;
        if (c + 1 < h->len && before(&h->items[c + 1], &h->items[c]))
            c++;
        if (!before(&h->items[c], &last))
            break;
        h->items[i] = h->items[c];
        i = c;
    }
    if (h->len > 0)
        h->items[i] = last;
    return top;
}

/* Octile distance from (x, y) to (gx, gy), as Python computes
 * `(ax + ay) + diag * min(ax, ay)` on ints: the sum is converted, the
 * product is rounded, then the two are added. */
static double octile(int64_t x, int64_t y, int64_t gx, int64_t gy)
{
    const double diag = SQRT2 - 2.0;
    int64_t ax = x < gx ? gx - x : x - gx, ay = y < gy ? gy - y : y - gy;
    return (double)(ax + ay) + diag * (double)(ax < ay ? ax : ay);
}

/* Search from flat cell `src` to flat cell `dst` of `closed`, `n` cells
 * in rows of `pw`. Writes the path's cells, `src` first, to `path`, which
 * holds `n`, and returns their count. Returns 0 when `dst` is unreachable,
 * -1 when memory runs out and -2 on a shape or endpoint outside the
 * interior. The ring is closed here as well, so no input makes the search
 * step off the mask. */
int64_t astar(unsigned char *closed, int64_t n, int64_t pw, int64_t src,
              int64_t dst, int64_t *path)
{
    /* (dx, dy, cost) in the order of planner._MOVES. */
    static const int dxs[8] = {1, -1, 0, 0, 1, 1, -1, -1};
    static const int dys[8] = {0, 0, 1, -1, 1, -1, 1, -1};
    static const double costs[8] = {1.0, 1.0, 1.0, 1.0,
                                     SQRT2, SQRT2, SQRT2, SQRT2};
    int64_t ph, i, len = 0, counter = 0, gx, gy;
    int64_t offs[8];
    double *g, *turns;
    int64_t *parent;
    signed char *parent_dir;
    Heap heap = {NULL, 0, 0};
    Entry e;
    int mi;

    if (pw < 3 || n < 3 * pw || n % pw != 0)
        return -2;
    ph = n / pw;
    if (src < 0 || src / pw < 1 || src / pw > ph - 2 || src % pw < 1
        || src % pw > pw - 2 || dst < 0 || dst / pw < 1 || dst / pw > ph - 2
        || dst % pw < 1 || dst % pw > pw - 2)
        return -2;
    for (i = 0; i < pw; i++)
        closed[i] = closed[n - pw + i] = 1;
    for (i = 0; i < n; i += pw)
        closed[i] = closed[i + pw - 1] = 1;
    for (mi = 0; mi < 8; mi++)
        offs[mi] = dys[mi] * pw + dxs[mi];
    gx = dst % pw;
    gy = dst / pw;

    if ((size_t)n > SIZE_MAX / sizeof(double))
        return -1;
    g = malloc((size_t)n * sizeof(double));
    turns = malloc((size_t)n * sizeof(double));
    parent = malloc((size_t)n * sizeof(int64_t));
    parent_dir = malloc((size_t)n);
    if (!g || !turns || !parent || !parent_dir) {
        len = -1;
        goto done;
    }
    for (i = 0; i < n; i++) {
        g[i] = turns[i] = HUGE_VAL;
        parent[i] = -1;
        parent_dir[i] = -1;
    }
    g[src] = 0.0;
    turns[src] = 0.0;
    e.f = octile(src % pw, src / pw, gx, gy);
    e.turns = 0.0;
    e.counter = 0;
    e.cell = src;
    if (push(&heap, e)) {
        len = -1;
        goto done;
    }
    while (heap.len > 0) {
        int64_t cur = pop(&heap).cell;
        double base_g, base_t;
        int pdir;
        if (closed[cur])
            continue;
        closed[cur] = 1;
        if (cur == dst)
            break;
        base_g = g[cur];
        base_t = turns[cur];
        pdir = parent_dir[cur];
        for (mi = 0; mi < 8; mi++) {
            int64_t nb = cur + offs[mi];
            double ng, nt, old;
            if (closed[nb])
                continue;
            ng = base_g + costs[mi];
            nt = pdir == -1 || pdir == mi ? base_t : base_t + 1.0;
            old = g[nb];
            if (ng < old - 1e-12 || (ng < old + 1e-12 && nt < turns[nb])) {
                g[nb] = ng;
                turns[nb] = nt;
                parent[nb] = cur;
                parent_dir[nb] = (signed char)mi;
                e.f = ng + octile(nb % pw, nb / pw, gx, gy);
                e.turns = nt;
                e.counter = ++counter;
                e.cell = nb;
                if (push(&heap, e)) {
                    len = -1;
                    goto done;
                }
            }
        }
    }
    if (parent[dst] != -1) {
        int64_t cur;
        for (cur = dst; cur != -1; cur = parent[cur])
            path[len++] = cur;
        for (i = 0; i < len / 2; i++) {
            int64_t t = path[i];
            path[i] = path[len - 1 - i];
            path[len - 1 - i] = t;
        }
    }

done:
    free(heap.items);
    free(g);
    free(turns);
    free(parent);
    free(parent_dir);
    return len;
}
