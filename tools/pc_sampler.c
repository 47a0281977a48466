/*
 * SIGPROF PC sampler for tools/profile_bench.sh --lines. Preloaded
 * (LD_PRELOAD) into the one process being profiled; every millisecond
 * of its CPU time it records the interrupted PC and the return addresses
 * above it. At exit it writes one line per sample to $PC_SAMPLER_OUT, hex
 * addresses relative to the executable's load address, innermost first.
 * x86-64 only.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

enum { MaxSamples = 1 << 18, Depth = 16, PeriodUs = 1000 };
static void *samples[MaxSamples][Depth];
static unsigned char depths[MaxSamples];
static unsigned long taken;

static void
on_prof(int sig, siginfo_t *si, void *ctx)
{
    (void)sig, (void)si;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MaxSamples)
        return;
#if defined(__x86_64__)
    void *pc = (void *)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
#else
#error "pc_sampler: unsupported architecture"
#endif
    void *bt[Depth + 4];
    int n = backtrace(bt, Depth + 4), j = 0, k = 1;
    while (j < n && bt[j] != pc) /* skip this handler's own frames */
        ++j;
    samples[i][0] = pc;
    for (++j; j < n && k < Depth; ++j)
        samples[i][k++] = bt[j];
    depths[i] = (unsigned char)k;
}

static int
main_bias(struct dl_phdr_info *info, size_t size, void *bias)
{
    (void)size;
    *(ElfW(Addr) *)bias = info->dlpi_addr;
    return 1; /* the executable is listed first */
}

__attribute__((constructor)) static void
start(void)
{
    unsetenv("LD_PRELOAD"); /* children run unsampled */
    void *warm[1];
    backtrace(warm, 1); /* load the unwinder outside the handler */
    struct sigaction sa = {.sa_sigaction = on_prof,
                           .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, PeriodUs}, {0, PeriodUs}};
    setitimer(ITIMER_PROF, &it, 0);
}

__attribute__((destructor)) static void
stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    const char *path = getenv("PC_SAMPLER_OUT");
    FILE *f = fopen(path ? path : "pc_samples.txt", "w");
    if (!f)
        return;
    ElfW(Addr) bias = 0;
    dl_iterate_phdr(main_bias, &bias);
    unsigned long n = taken < MaxSamples ? taken : MaxSamples;
    for (unsigned long i = 0; i < n; ++i) {
        for (int k = 0; k < depths[i]; ++k)
            fprintf(f, k ? " %lx" : "%lx",
                    (unsigned long)((ElfW(Addr))samples[i][k] - bias));
        fputc('\n', f);
    }
    fclose(f);
}
