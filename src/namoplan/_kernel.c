/* The two compiled searches of namoplan, built by `planner.build_kernel`:
 *
 * - `astar`, the 8-connected A* behind `planner._astar_on_mask`;
 * - `stock_cells`, the candidate order and clearance test behind
 *   `removal._stock_candidates`.
 *
 * Each computes with the same IEEE double steps as the Python code it
 * replaced, so its answers are bit-identical. Build it without
 * floating-point contraction: a fused multiply-add rounds once where
 * Python and numpy round twice.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* -- A* ------------------------------------------------------------------
 *
 * The mask is flat and row-major, `pw` cells to a row, with a ring of
 * blocked cells around the map; nonzero is blocked. It doubles as the
 * closed set, so the search writes into it. Costs, the octile heuristic
 * and the heap order (f, turns, push counter) are computed with the same
 * IEEE double steps as a per-cell search over (x, y) in Python, and the
 * moves keep the order of `planner._MOVES`, so ties break the same way and
 * the path is bit-identical. The order is total because the counter is
 * unique, so this heap pops what Python's `heapq` pops.
 */

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

/* -- Stock cells -----------------------------------------------------------
 *
 * The candidates of a stock search are the free cells of a window of the
 * map outside the static inflation for the obstacle's radius whose
 * squared distance d2 from the mean lies in [r*r*(1 - BAND_GAP),
 * R*R*(1 + BAND_GAP)], so that rounding loses no cell whose distance lies
 * in [r, R], between the inner and the search radius. They are
 * ordered by d2, equal d2 in row-major order, and the order is cut into
 * bands wherever d2 grows by more than a relative BAND_GAP from one cell
 * to the next. Squared distances and Python's `math.hypot` are each
 * within a few ulps of exact, so every cell of a later band lies strictly
 * farther from the mean than every cell of an earlier one; Python sorts
 * within a band. Each value takes the IEEE steps numpy took before: a
 * cell centre is `((double)ix + 0.5) * res`, then `dx = x - mx`, and
 * `d2 = dx * dx + dy * dy`.
 */

#define FREE 0 /* gridmap.FREE */
#define BAND_GAP 1e-9

/* Coordinate of the centre of cell `i` along one axis. */
static double centre(int64_t i, double res)
{
    return ((double)i + 0.5) * res;
}

/* A key in [0, n] of a squared distance `v` in [lo, lo + span]: each
 * rounded step is monotone, so a smaller key never holds a larger `v`. */
static int64_t bucket(double v, double lo, double span, int64_t n)
{
    int64_t k = span > 0.0 && span < HUGE_VAL
                    ? (int64_t)((v - lo) / span * (double)n) : 0;
    return k < n ? k : n;
}

/* Whether the cell centre (x, y) keeps `clearance` from each of the `nw`
 * waypoints of `wp`, (x, y) pairs: the per-cell test
 * `!(norm(pts - (x, y)).min() < clearance)`. A correctly rounded sqrt is
 * monotone, so it commutes with the min, and a cell fails as soon as a
 * running minimum does; with no waypoints every cell fits. */
static int clears(double x, double y, const double *wp, int64_t nw,
                  double clearance)
{
    double m = HUGE_VAL;
    int64_t k;
    for (k = 0; k < nw; k++) {
        double ex = wp[2 * k] - x, ey = wp[2 * k + 1] - y;
        double v = ex * ex + ey * ey;
        if (v < m) {
            m = v;
            if (sqrt(m) < clearance)
                return 0;
        }
    }
    return 1;
}

/* Write the candidates of the window [iy0, iy1) x [ix0, ix1) to `order`,
 * nearest first, and return their count, or -1 when memory runs out. A
 * counting pass places them row by row into n + 1 buckets of `bucket`,
 * and an insertion pass sorts each bucket, moving a cell only past
 * strictly larger d2. The candidates fill a disk, whose cell count grows
 * linearly in d2, so a bucket holds about one cell. */
static int64_t order_cells(const unsigned char *cells,
                           const unsigned char *blocked, int64_t w,
                           int64_t iy0, int64_t iy1, int64_t ix0, int64_t ix1,
                           double mx, double my, double res, double inner,
                           double radius, int64_t *order)
{
    const double low = inner * inner * (1.0 - BAND_GAP);
    const double limit = radius * radius * (1.0 + BAND_GAP);
    int64_t area = (iy1 - iy0) * (ix1 - ix0), n = 0, iy, ix, i, b, first;
    double lo = HUGE_VAL, hi = -HUGE_VAL;
    int64_t *cand, *next;
    double *d2, *sd2;

    if ((size_t)area >= SIZE_MAX / sizeof(double))
        return -1;
    cand = malloc((size_t)area * sizeof *cand);
    d2 = malloc((size_t)area * sizeof *d2);
    sd2 = malloc((size_t)area * sizeof *sd2);
    next = malloc((size_t)(area + 1) * sizeof *next);
    if (!cand || !d2 || !sd2 || !next) {
        n = -1;
        goto done;
    }
    for (iy = iy0; iy < iy1; iy++) {
        double dy = centre(iy, res) - my;
        for (ix = ix0; ix < ix1; ix++) {
            int64_t c = iy * w + ix;
            double dx, v;
            if (cells[c] != FREE || blocked[c])
                continue;
            dx = centre(ix, res) - mx;
            v = dx * dx + dy * dy;
            if (v >= low && v <= limit) {
                cand[n] = c;
                d2[n++] = v;
                lo = v < lo ? v : lo;
                hi = v > hi ? v : hi;
            }
        }
    }
    /* next[b] starts as the first position of bucket b and ends as the
     * first position after it. */
    for (b = 0; b <= n; b++)
        next[b] = 0;
    for (i = 0; i < n; i++)
        next[bucket(d2[i], lo, hi - lo, n)]++;
    for (b = 0, first = 0; b <= n; b++) {
        int64_t count = next[b];
        next[b] = first;
        first += count;
    }
    for (i = 0; i < n; i++) {
        int64_t j = next[bucket(d2[i], lo, hi - lo, n)]++;
        order[j] = cand[i];
        sd2[j] = d2[i];
    }
    for (b = 0, first = 0; b <= n; first = next[b++])
        for (i = first + 1; i < next[b]; i++) {
            double v = sd2[i];
            int64_t c = order[i], j;
            for (j = i; j > first && sd2[j - 1] > v; j--) {
                sd2[j] = sd2[j - 1];
                order[j] = order[j - 1];
            }
            sd2[j] = v;
            order[j] = c;
        }

done:
    free(cand);
    free(d2);
    free(sd2);
    free(next);
    return n;
}

/* Write to `out` the flat indices (iy * w + ix) of the cells of the next
 * band that keep `clearance` from every waypoint, testing the cells one by
 * one from candidate position `state[0]` until a band has any, and return
 * their count: 0 when no band is left, -1 when memory runs out and -2 on a
 * window or state outside the map. `cells` and `blocked` are the map and
 * its static inflation, `h` x `w`, row-major; `pts` holds `npts` (x, y)
 * waypoints. A band may lack cells nearer than `inner`, all of which
 * Python's own distance test drops. `order`, as large as the window, and
 * `state` = {next position, candidate count} carry the search between
 * calls: a call at position 0 orders the candidates into `order`, and each
 * call leaves the position after the band it returns. */
int64_t stock_cells(const unsigned char *cells, const unsigned char *blocked,
                    int64_t h, int64_t w, int64_t iy0, int64_t iy1,
                    int64_t ix0, int64_t ix1, double mx, double my,
                    double res, double inner, double radius,
                    const double *pts, int64_t npts, double clearance,
                    int64_t *order, int64_t *state, int64_t *out)
{
    /* A waypoint this far from the mean lies beyond `clearance` of every
     * candidate, whatever the rounding, so it cannot fail a cell. */
    const double reach = (radius + clearance) * (radius + clearance)
                         * (1.0 + 1e-6);
    int64_t pos = state[0], n = state[1], found = 0, nw = 0, k;
    double *wp;

    if (iy0 < 0 || ix0 < 0 || iy0 >= iy1 || ix0 >= ix1 || iy1 > h || ix1 > w
        || npts < 0 || (size_t)npts >= SIZE_MAX / (2 * sizeof(double))
        || pos < 0 || (pos > 0 && (pos > n || n > (iy1 - iy0) * (ix1 - ix0))))
        return -2;
    if (pos == 0) {
        n = state[1] = order_cells(cells, blocked, w, iy0, iy1, ix0, ix1,
                                   mx, my, res, inner, radius, order);
        if (n < 0)
            return -1;
    }
    if (pos == n)
        return 0;
    /* The waypoints in reach, in path order. */
    wp = malloc((size_t)(2 * npts + 1) * sizeof *wp);
    if (!wp)
        return -1;
    for (k = 0; k < npts; k++) {
        double ex = pts[2 * k] - mx, ey = pts[2 * k + 1] - my;
        if (ex * ex + ey * ey <= reach) {
            wp[2 * nw] = pts[2 * k];
            wp[2 * nw + 1] = pts[2 * k + 1];
            nw++;
        }
    }
    while (pos < n && found == 0) {
        double prev = -1.0;
        for (; pos < n; pos++) {
            int64_t c = order[pos], iy = c / w, ix = c - iy * w;
            double x = centre(ix, res), y = centre(iy, res);
            double dx = x - mx, dy = y - my, v = dx * dx + dy * dy;
            if (prev >= 0.0 && v - prev > BAND_GAP * v)
                break;
            prev = v;
            if (clears(x, y, wp, nw, clearance))
                out[found++] = c;
        }
    }
    free(wp);
    state[0] = pos;
    return found;
}
