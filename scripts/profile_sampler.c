/* A SIGPROF sampler for scripts/profile.sh, preloaded into the benchmark.
 * Every millisecond of process CPU time it records the interrupted program
 * counter and, on the main thread, the return addresses found by walking
 * saved frame pointers; at exit it writes "base <load base>" and then one
 * line per sample, innermost address first, all relative to the
 * executable's load base, to the file $PRB_PROFILE_OUT names. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

enum { DEPTH = 96, SAMPLES = 1 << 16, MAIN_STACK = 64 << 20 };
static uintptr_t (*buf)[DEPTH + 1];
static unsigned long used;
static uintptr_t base, stack_top;

static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    base = info->dlpi_addr; /* the executable is listed first */
    return 1;
}

static void sample(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    unsigned long at = __atomic_fetch_add(&used, 1, __ATOMIC_RELAXED);
    if (at >= SAMPLES) return;
    const greg_t *r = ((ucontext_t *)context)->uc_mcontext.gregs;
    uintptr_t *s = buf[at], sp = r[REG_RSP], fp = r[REG_RBP], n = 0;
    s[++n] = r[REG_RIP];
    /* Everything between sp and the top of the main stack is mapped, so
     * a chain that only climbs inside it is safe to follow. */
    if (sp < stack_top && stack_top - sp < MAIN_STACK)
        while (n < DEPTH && fp >= sp && fp + 16 <= stack_top && !(fp & 7)) {
            uintptr_t next = ((uintptr_t *)fp)[0];
            s[++n] = ((uintptr_t *)fp)[1];
            if (next <= fp) break;
            fp = next;
        }
    s[0] = n;
}

__attribute__((constructor)) static void start(void) {
    char line[512], name[512];
    unsigned long top;
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (sscanf(line, "%*x-%lx %*s %*s %*s %*s %511s", &top, name) == 2
            && !strcmp(name, "[stack]"))
            stack_top = top;
    if (maps) fclose(maps);
    dl_iterate_phdr(first_object, NULL);
    buf = calloc(SAMPLES, sizeof *buf);
    struct sigaction sa = {.sa_sigaction = sample, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PRB_PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    fprintf(out, "base %lx\n", (unsigned long)base);
    for (unsigned long i = 0; i < used && i < SAMPLES; i++) {
        for (uintptr_t j = 1; j <= buf[i][0]; j++)
            fprintf(out, j > 1 ? " %lx" : "%lx", (unsigned long)(buf[i][j] - base));
        fputc('\n', out);
    }
    fclose(out);
}
