#include "workloads/rodinia/cfd.hh"

#include <cmath>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "cfd",
    "CFD Solver",
    core::Suite::Rodinia,
    "Unstructured Grid",
    "Fluid Dynamics",
    "16384 elements",
    "Unstructured-grid finite-volume Euler solver (Corrigan et al.)",
    "97046-element mesh, 2 RK steps (Table I 97K)",
};

constexpr int kFaces = 4;
constexpr float kGamma = 1.4f;

/** SoA mesh and state: 5 conserved variables per element. */
struct Mesh
{
    int nel = 0;
    std::vector<int> neighbor;      //!< nel x 4 (-1 = far-field)
    std::vector<float> normal;      //!< nel x 4 x 3 face normals
    std::vector<float> area;        //!< per-element volume proxy
    std::vector<float> density;
    std::vector<float> momx, momy, momz;
    std::vector<float> energy;
};

void
makeMesh(const Cfd::Params &p, Mesh &m)
{
    Rng rng(0xCFD);
    m.nel = p.elements;
    int w = 1;
    while (w * w < m.nel)
        ++w;

    m.neighbor.resize(size_t(m.nel) * kFaces);
    m.normal.resize(size_t(m.nel) * kFaces * 3);
    m.area.resize(m.nel);
    for (int i = 0; i < m.nel; ++i) {
        int cand[kFaces] = {i - 1, i + 1, i - w, i + w};
        for (int f = 0; f < kFaces; ++f) {
            int nb = cand[f];
            // Jitter some faces to break the regular structure, as a
            // reordered unstructured mesh would.
            if (rng.chance(0.15))
                nb = int(rng.below(uint64_t(m.nel)));
            m.neighbor[size_t(i) * kFaces + f] =
                (nb >= 0 && nb < m.nel) ? nb : -1;
            for (int d = 0; d < 3; ++d)
                m.normal[(size_t(i) * kFaces + f) * 3 + d] =
                    float(rng.uniform(-1.0, 1.0));
        }
        m.area[i] = float(rng.uniform(0.8, 1.2));
    }

    m.density.resize(m.nel);
    m.momx.resize(m.nel);
    m.momy.resize(m.nel);
    m.momz.resize(m.nel);
    m.energy.resize(m.nel);
    for (int i = 0; i < m.nel; ++i) {
        m.density[i] = float(rng.uniform(0.9, 1.1));
        m.momx[i] = float(rng.uniform(-0.1, 0.1));
        m.momy[i] = float(rng.uniform(-0.1, 0.1));
        m.momz[i] = float(rng.uniform(-0.1, 0.1));
        m.energy[i] = float(rng.uniform(2.4, 2.6));
    }
}

/** Pressure from the conserved variables. */
inline float
pressure(float rho, float mx, float my, float mz, float e)
{
    float ke = 0.5f * (mx * mx + my * my + mz * mz) / rho;
    return (kGamma - 1.0f) * (e - ke);
}

} // namespace

Cfd::Params
Cfd::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {1024, 1};
      case core::Scale::Small:
        return {4096, 2};
      case core::Scale::Paper:
        return {97046, 2};
      case core::Scale::Full:
      default:
        return {16384, 2};
    }
}

const core::WorkloadInfo &
Cfd::info() const
{
    return kInfo;
}

void
Cfd::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    Mesh m;
    makeMesh(p, m);
    std::vector<float> flux(size_t(m.nel) * 5, 0.0f);
    const int nt = session.numThreads();

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(25 * 1024);
        const int t = ctx.tid();
        const int lo = m.nel * t / nt;
        const int hi = m.nel * (t + 1) / nt;

        for (int rk = 0; rk < p.rkSteps; ++rk) {
            // Flux accumulation over faces.
            for (int i = lo; i < hi; ++i) {
                ctx.load(&m.density[i], 4);
                ctx.load(&m.momx[i], 4);
                ctx.load(&m.energy[i], 4);
                float rho = m.density[i], mx = m.momx[i],
                      my = m.momy[i], mz = m.momz[i], e = m.energy[i];
                float pi = pressure(rho, mx, my, mz, e);
                ctx.fp(8);
                float acc[5] = {0, 0, 0, 0, 0};
                for (int f = 0; f < kFaces; ++f) {
                    int nb = ctx.ld(&m.neighbor[size_t(i) * kFaces + f]);
                    ctx.load(&m.normal[(size_t(i) * kFaces + f) * 3],
                             12);
                    const float *nv =
                        &m.normal[(size_t(i) * kFaces + f) * 3];
                    float nrho, nmx, nmy, nmz, ne;
                    ctx.branch();
                    if (nb >= 0) {
                        ctx.load(&m.density[nb], 4);
                        ctx.load(&m.momx[nb], 4);
                        ctx.load(&m.momy[nb], 4);
                        ctx.load(&m.momz[nb], 4);
                        ctx.load(&m.energy[nb], 4);
                        nrho = m.density[nb];
                        nmx = m.momx[nb];
                        nmy = m.momy[nb];
                        nmz = m.momz[nb];
                        ne = m.energy[nb];
                    } else {
                        // Far-field boundary state.
                        nrho = 1.0f;
                        nmx = nmy = nmz = 0.0f;
                        ne = 2.5f;
                    }
                    float pn = pressure(nrho, nmx, nmy, nmz, ne);
                    float avgp = 0.5f * (pi + pn);
                    ctx.fp(56);
                    for (int d = 0; d < 3; ++d) {
                        float nd = nv[d];
                        acc[0] += 0.5f * nd * (mx + nmx);
                        acc[1] += nd * (avgp + 0.25f * (mx + nmx) *
                                                   (mx + nmx) /
                                                   (rho + nrho));
                        acc[2] += nd * 0.25f * (my + nmy);
                        acc[3] += nd * 0.25f * (mz + nmz);
                        acc[4] += 0.5f * nd * (e + ne + avgp);
                    }
                }
                ctx.store(&flux[size_t(i) * 5], 20);
                for (int v = 0; v < 5; ++v)
                    flux[size_t(i) * 5 + v] = acc[v];
            }
            ctx.barrier();

            // Explicit time integration.
            for (int i = lo; i < hi; ++i) {
                float dt = 0.001f / ctx.ld(&m.area[i]);
                ctx.load(&flux[size_t(i) * 5], 20);
                ctx.fp(10);
                m.density[i] -= dt * flux[size_t(i) * 5 + 0];
                m.momx[i] -= dt * flux[size_t(i) * 5 + 1];
                m.momy[i] -= dt * flux[size_t(i) * 5 + 2];
                m.momz[i] -= dt * flux[size_t(i) * 5 + 3];
                m.energy[i] -= dt * flux[size_t(i) * 5 + 4];
                ctx.store(&m.density[i], 4);
                ctx.store(&m.momx[i], 4);
                ctx.store(&m.energy[i], 4);
            }
            ctx.barrier();
        }
    });

    digest = core::hashRange(m.density.begin(), m.density.end());
    digest = core::hashCombine(
        digest, core::hashRange(m.energy.begin(), m.energy.end()));
}

gpusim::LaunchSequence
Cfd::runGpu(core::Scale scale, int version)
{
    (void)version;
    const Params p = params(scale);
    Mesh m;
    makeMesh(p, m);
    std::vector<float> flux(size_t(m.nel) * 5, 0.0f);

    gpusim::LaunchConfig launch;
    launch.blockDim = 128;
    launch.gridDim = (m.nel + launch.blockDim - 1) / launch.blockDim;

    gpusim::DeviceSpace dev;
    dev.add(m.density);
    dev.add(m.momx);
    dev.add(m.momy);
    dev.add(m.momz);
    dev.add(m.energy);
    dev.add(m.neighbor);
    dev.add(m.normal);
    dev.add(m.area);
    dev.add(flux);

    gpusim::LaunchSequence seq;
    for (int rk = 0; rk < p.rkSteps; ++rk) {
        // compute_flux kernel.
        auto fluxKernel = [&](gpusim::KernelCtx &ctx) {
            int i = ctx.globalId();
            if (ctx.branch(i >= m.nel))
                return;
            float rho = ctx.ldg(&m.density[i]);
            float mx = ctx.ldg(&m.momx[i]);
            float my = ctx.ldg(&m.momy[i]);
            float mz = ctx.ldg(&m.momz[i]);
            float e = ctx.ldg(&m.energy[i]);
            float pi = pressure(rho, mx, my, mz, e);
            ctx.fp(8);
            float acc[5] = {0, 0, 0, 0, 0};
            for (int f = 0; f < kFaces; ++f) {
                int nb = ctx.ldg(&m.neighbor[size_t(i) * kFaces + f]);
                ctx.record(gpusim::GOp::Load, gpusim::Space::Global,
                           uint64_t(uintptr_t(
                               &m.normal[(size_t(i) * kFaces + f) * 3])),
                           12, std::source_location::current());
                const float *nv = &m.normal[(size_t(i) * kFaces + f) * 3];
                float nrho, nmx, nmy, nmz, ne;
                if (ctx.branch(nb >= 0)) {
                    nrho = ctx.ldg(&m.density[nb]);
                    nmx = ctx.ldg(&m.momx[nb]);
                    nmy = ctx.ldg(&m.momy[nb]);
                    nmz = ctx.ldg(&m.momz[nb]);
                    ne = ctx.ldg(&m.energy[nb]);
                } else {
                    nrho = 1.0f;
                    nmx = nmy = nmz = 0.0f;
                    ne = 2.5f;
                }
                float pn = pressure(nrho, nmx, nmy, nmz, ne);
                float avgp = 0.5f * (pi + pn);
                ctx.fp(56);
                for (int d = 0; d < 3; ++d) {
                    float nd = nv[d];
                    acc[0] += 0.5f * nd * (mx + nmx);
                    acc[1] += nd * (avgp + 0.25f * (mx + nmx) *
                                               (mx + nmx) /
                                               (rho + nrho));
                    acc[2] += nd * 0.25f * (my + nmy);
                    acc[3] += nd * 0.25f * (mz + nmz);
                    acc[4] += 0.5f * nd * (e + ne + avgp);
                }
            }
            for (int v = 0; v < 5; ++v) {
                flux[size_t(i) * 5 + v] = acc[v];
                ctx.stg(&flux[size_t(i) * 5 + v], acc[v]);
            }
        };
        seq.add(gpusim::recordKernel(launch, fluxKernel, dev));

        // time_step kernel.
        auto stepKernel = [&](gpusim::KernelCtx &ctx) {
            int i = ctx.globalId();
            if (ctx.branch(i >= m.nel))
                return;
            float dt = 0.001f / ctx.ldg(&m.area[i]);
            ctx.fp(10);
            float f0 = ctx.ldg(&flux[size_t(i) * 5 + 0]);
            float f1 = ctx.ldg(&flux[size_t(i) * 5 + 1]);
            float f2 = ctx.ldg(&flux[size_t(i) * 5 + 2]);
            float f3 = ctx.ldg(&flux[size_t(i) * 5 + 3]);
            float f4 = ctx.ldg(&flux[size_t(i) * 5 + 4]);
            ctx.stg(&m.density[i], m.density[i] - dt * f0);
            ctx.stg(&m.momx[i], m.momx[i] - dt * f1);
            ctx.stg(&m.momy[i], m.momy[i] - dt * f2);
            ctx.stg(&m.momz[i], m.momz[i] - dt * f3);
            ctx.stg(&m.energy[i], m.energy[i] - dt * f4);
        };
        seq.add(gpusim::recordKernel(launch, stepKernel, dev));
    }

    digest = core::hashRange(m.density.begin(), m.density.end());
    digest = core::hashCombine(
        digest, core::hashRange(m.energy.begin(), m.energy.end()));
    return seq;
}

void
registerCfd()
{
    core::Registry::instance().add(kInfo,
                                   [] { return std::make_unique<Cfd>(); });
}

} // namespace workloads
} // namespace rodinia
