"""Paper-reported values, used to check reproduction *shape* in the
"Headline shape checks" section of :mod:`repro.evaluation.report`.

Only values stated in the paper's text/tables are recorded. Figures 9-11 are
bar charts whose exact values are hard to read; where the text states
averages we record those.
"""

# Headline averages (Abstract / Sec. VI-B)
SPEEDUP_OVER = {
    "pyg-cpu": 15286.0,
    "pyg-gpu": 294.0,
    "dgl-cpu": 1057.0,
    "dgl-gpu": 460.0,
    "hygcn": 7.8,
    "awb-gcn": 2.5,
    "deepburning-zc706": 2532.0,
    "deepburning-kcu1500": 165.0,
    "deepburning-alveo-u50": 115.0,
}

SPEEDUP_OVER_8BIT = {
    "pyg-cpu": 32158.0,
    "pyg-gpu": 607.0,
    "dgl-cpu": 2213.0,
    "dgl-gpu": 962.0,
}

# Tab. VI: speedups over PyG-CPU (GCN)
TABLE_VI = {
    "awb-gcn": {"cora": 1063, "citeseer": 913, "pubmed": 466, "nell": 1425,
                "reddit": 9242},
    "gcod-accel": {"cora": 1824, "citeseer": 1692, "pubmed": 901,
                   "nell": 2294, "reddit": 39881},
    "gcod-accel-sp": {"cora": 2031, "citeseer": 1763, "pubmed": 970,
                      "nell": 2459, "reddit": 44827},
    "gcod-accel-sp-quant": {"cora": 4373, "citeseer": 3459, "pubmed": 1931,
                            "nell": 4915, "reddit": 90301},
}

# Tab. VII: accuracy (%) for the GCN model rows
TABLE_VII_GCN = {
    "vanilla": {"cora": 81.1, "citeseer": 70.2, "pubmed": 79.1, "nell": 65.6,
                "reddit": 92.2},
    "rp": {"cora": 79.6, "citeseer": 70.4, "pubmed": 78.4, "nell": 63.5,
           "reddit": 91.2},
    "sgcn": {"cora": 80.2, "citeseer": 70.4, "pubmed": 79.1, "nell": 64.2,
             "reddit": 91.3},
    "qat": {"cora": 81.0, "citeseer": 71.3, "pubmed": 79.0, "nell": 65.1,
            "reddit": 92.4},
    "degree-quant": {"cora": 81.7, "citeseer": 71.0, "pubmed": 79.1,
                     "nell": 65.2, "reddit": 92.6},
    "gcod": {"cora": 81.9, "citeseer": 71.7, "pubmed": 79.5, "nell": 66.3,
             "reddit": 93.4},
    "gcod-8bit": {"cora": 81.0, "citeseer": 70.6, "pubmed": 79.5, "nell": 66.0,
                  "reddit": 93.2},
}

# Fig. 4 latency reductions over HyGCN (visualization captions)
FIG4_LATENCY_REDUCTION = {"cora": 7.8, "citeseer": 9.2, "pubmed": 3.2}

# Fig. 11a: GCoD needs on average 48% (26% for 8-bit) of HyGCN's bandwidth
BANDWIDTH_VS_HYGCN = {"gcod": 0.48, "gcod-8bit": 0.26}

# Sec. VI-C ablation: across C in {1..4}, S in {8..20}
ABLATION_SPEEDUP_OVER_AWB = (1.8, 2.8)
ABLATION_BANDWIDTH_REDUCTION = (0.26, 0.53)

# Sec. IV-B2: training cost accounting
TRAINING_COST_RANGE = (0.7, 1.1)
TRAINING_STEP_FRACTIONS = (0.05, 0.50, 0.45)

# Sec. V-B: sparser-branch weight forwarding rate
WEIGHT_FORWARD_RATE = 0.63

# Sec. I: sparser workload keeps ~30% of non-zeros on Cora
CORA_SPARSE_NNZ_FRACTION = 0.30

# Tab. VI text: sparsification contributes ~1.09x, 8-bit ~2.02x on average
SPARSIFICATION_GAIN = 1.09
QUANTIZATION_GAIN = 2.02
