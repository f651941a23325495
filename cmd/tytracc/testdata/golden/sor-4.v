// Generated by the TyTra back-end compiler from module "sor".
// Kernel HDL for integration with an HLS base platform (see Fig 16).

// ---- TyTra primitive cores ----

// Offset window: buffers DEPTH elements of a stream and exposes the
// whole window; taps select stencil neighbours (Fig 13's offset
// buffers). AHEAD is the number of elements the controller runs ahead
// of the datapath wave.
module tytra_offset_window #(
    parameter WIDTH = 18,
    parameter DEPTH = 4
) (
    input  wire             clk,
    input  wire             rst,
    input  wire             en,
    input  wire [WIDTH-1:0] din,
    output wire [DEPTH*WIDTH-1:0] window
);
    reg [WIDTH-1:0] buf_r [0:DEPTH-1];
    integer i;
    always @(posedge clk) begin
        if (rst) begin
            for (i = 0; i < DEPTH; i = i + 1) buf_r[i] <= {WIDTH{1'b0}};
        end else if (en) begin
            buf_r[0] <= din;
            for (i = 1; i < DEPTH; i = i + 1) buf_r[i] <= buf_r[i-1];
        end
    end
    genvar k;
    generate
        for (k = 0; k < DEPTH; k = k + 1) begin : taps
            assign window[(k+1)*WIDTH-1:k*WIDTH] = buf_r[k];
        end
    endgenerate
endmodule

// Behavioural integer square root (one result per cycle after fill).
module tytra_isqrt #(
    parameter WIDTH = 18
) (
    input  wire [WIDTH-1:0] a,
    output wire [WIDTH-1:0] q
);
    function [WIDTH-1:0] isqrt_f;
        input [WIDTH-1:0] v;
        reg [WIDTH-1:0] x, b;
        begin
            x = 0;
            b = 1 << (WIDTH - 2);
            while (b != 0) begin
                if (v >= x + b) begin
                    v = v - (x + b);
                    x = (x >> 1) + b;
                end else begin
                    x = x >> 1;
                end
                b = b >> 2;
            end
            isqrt_f = x;
        end
    endfunction
    assign q = isqrt_f(a);
endmodule

// Datapath of @f0: pipeline depth 15.
module tytra_f0_dp (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [17:0] in_p,
    input  wire [17:0] in_rhs,
    output wire [17:0] out_p_new,
    input  wire [17:0] in_pip1,
    input  wire [17:0] in_pin1,
    input  wire [17:0] in_pjp1,
    input  wire [17:0] in_pjn1,
    input  wire [17:0] in_pkp1,
    input  wire [17:0] in_pkn1,
    output reg  [17:0] acc_sorErrAcc,
    output wire out_valid
);
    reg [14:0] valid_r;
    always @(posedge clk) begin
        if (rst) valid_r <= 0;
        else valid_r <= {valid_r[13:0], in_valid};
    end
    assign out_valid = valid_r[14];

    // balancing delay line for 12 (3 stages)
    reg [17:0] v12_dly1;
    always @(posedge clk) v12_dly1 <= v12;
    reg [17:0] v12_dly2;
    always @(posedge clk) v12_dly2 <= v12_dly1;
    reg [17:0] v12_dly3;
    always @(posedge clk) v12_dly3 <= v12_dly2;
    // balancing delay line for 9 (1 stages)
    reg [17:0] v9_dly1;
    always @(posedge clk) v9_dly1 <= v9;
    // balancing delay line for p (14 stages)
    reg [17:0] p_dly1;
    always @(posedge clk) p_dly1 <= in_p;
    reg [17:0] p_dly2;
    always @(posedge clk) p_dly2 <= p_dly1;
    reg [17:0] p_dly3;
    always @(posedge clk) p_dly3 <= p_dly2;
    reg [17:0] p_dly4;
    always @(posedge clk) p_dly4 <= p_dly3;
    reg [17:0] p_dly5;
    always @(posedge clk) p_dly5 <= p_dly4;
    reg [17:0] p_dly6;
    always @(posedge clk) p_dly6 <= p_dly5;
    reg [17:0] p_dly7;
    always @(posedge clk) p_dly7 <= p_dly6;
    reg [17:0] p_dly8;
    always @(posedge clk) p_dly8 <= p_dly7;
    reg [17:0] p_dly9;
    always @(posedge clk) p_dly9 <= p_dly8;
    reg [17:0] p_dly10;
    always @(posedge clk) p_dly10 <= p_dly9;
    reg [17:0] p_dly11;
    always @(posedge clk) p_dly11 <= p_dly10;
    reg [17:0] p_dly12;
    always @(posedge clk) p_dly12 <= p_dly11;
    reg [17:0] p_dly13;
    always @(posedge clk) p_dly13 <= p_dly12;
    reg [17:0] p_dly14;
    always @(posedge clk) p_dly14 <= p_dly13;
    wire [17:0] v1_c = in_pip1 * 18;
    reg [17:0] v1_p1;
    always @(posedge clk) v1_p1 <= v1_c;
    reg [17:0] v1;
    always @(posedge clk) v1 <= v1_p1;
    wire [17:0] v2_c = in_pin1 * 14;
    reg [17:0] v2_p1;
    always @(posedge clk) v2_p1 <= v2_c;
    reg [17:0] v2;
    always @(posedge clk) v2 <= v2_p1;
    wire [17:0] v3_c = in_pjp1 * 17;
    reg [17:0] v3_p1;
    always @(posedge clk) v3_p1 <= v3_c;
    reg [17:0] v3;
    always @(posedge clk) v3 <= v3_p1;
    wire [17:0] v4_c = in_pjn1 * 15;
    reg [17:0] v4_p1;
    always @(posedge clk) v4_p1 <= v4_c;
    reg [17:0] v4;
    always @(posedge clk) v4 <= v4_p1;
    wire [17:0] v5_c = in_pkp1 * 19;
    reg [17:0] v5_p1;
    always @(posedge clk) v5_p1 <= v5_c;
    reg [17:0] v5;
    always @(posedge clk) v5 <= v5_p1;
    wire [17:0] v6_c = in_pkn1 * 13;
    reg [17:0] v6_p1;
    always @(posedge clk) v6_p1 <= v6_c;
    reg [17:0] v6;
    always @(posedge clk) v6 <= v6_p1;
    wire [17:0] v7_c = v1 + v2;
    reg [17:0] v7;
    always @(posedge clk) v7 <= v7_c;
    wire [17:0] v8_c = v3 + v4;
    reg [17:0] v8;
    always @(posedge clk) v8 <= v8_c;
    wire [17:0] v9_c = v5 + v6;
    reg [17:0] v9;
    always @(posedge clk) v9 <= v9_c;
    wire [17:0] v10_c = v7 + v8;
    reg [17:0] v10;
    always @(posedge clk) v10 <= v10_c;
    wire [17:0] v11_c = v10 + v9_dly1;
    reg [17:0] v11;
    always @(posedge clk) v11 <= v11_c;
    wire [17:0] v12_c = in_rhs * 16;
    reg [17:0] v12_p1;
    always @(posedge clk) v12_p1 <= v12_c;
    reg [17:0] v12;
    always @(posedge clk) v12 <= v12_p1;
    wire [17:0] v13_c = v11 - v12_dly3;
    reg [17:0] v13;
    always @(posedge clk) v13 <= v13_c;
    wire [17:0] v14_c = v13 >> 4;
    reg [17:0] v14;
    always @(posedge clk) v14 <= v14_c;
    wire [17:0] v15_c = v14 * 13;
    reg [17:0] v15_p1;
    always @(posedge clk) v15_p1 <= v15_c;
    reg [17:0] v15;
    always @(posedge clk) v15 <= v15_p1;
    wire [17:0] v16_c = v15 >> 4;
    reg [17:0] v16;
    always @(posedge clk) v16 <= v16_c;
    wire [17:0] v17_c = v16 * 19;
    reg [17:0] v17_p1;
    always @(posedge clk) v17_p1 <= v17_c;
    reg [17:0] v17;
    always @(posedge clk) v17 <= v17_p1;
    wire [17:0] v18_c = v17 >> 4;
    reg [17:0] v18;
    always @(posedge clk) v18 <= v18_c;
    wire [17:0] v19_c = v18 - p_dly13;
    reg [17:0] v19;
    always @(posedge clk) v19 <= v19_c;
    wire [17:0] v20_c = v19 + p_dly14;
    reg [17:0] v20;
    always @(posedge clk) v20 <= v20_c;
    assign out_p_new = v20;
    // reduction into @sorErrAcc
    always @(posedge clk) begin
        if (rst) acc_sorErrAcc <= 0;
        else if (valid_r[13]) acc_sorErrAcc <= v19 + acc_sorErrAcc;
    end
endmodule

// Stream controller of @f0: offset windows and wave alignment.
module tytra_f0_sc (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [17:0] s_in_p,
    input  wire [17:0] s_in_rhs,
    output wire [17:0] s_out_p_new,
    output wire out_valid
);
    wire [5417:0] win_p;
    tytra_offset_window #(.WIDTH(18), .DEPTH(301)) u_win_p (
        .clk(clk), .rst(rst), .en(in_valid), .din(s_in_p), .window(win_p));
    tytra_f0_dp u_dp (
        .clk(clk), .rst(rst), .in_valid(in_valid),
        .in_p(win_p[150*18 +: 18]),
        .in_rhs(s_in_rhs),
        .out_p_new(s_out_p_new),
        .in_pip1(win_p[149*18 +: 18]),
        .in_pin1(win_p[151*18 +: 18]),
        .in_pjp1(win_p[135*18 +: 18]),
        .in_pjn1(win_p[165*18 +: 18]),
        .in_pkp1(win_p[0*18 +: 18]),
        .in_pkn1(win_p[300*18 +: 18]),
        .out_valid(out_valid));
endmodule

// Top: kernel boundary of module "sor" for HLS integration.
module tytra_top_sor (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [17:0] p_in_main_p0,
    input  wire [17:0] p_in_main_rhs0,
    output wire [17:0] p_out_main_p_new0,
    input  wire [17:0] p_in_main_p1,
    input  wire [17:0] p_in_main_rhs1,
    output wire [17:0] p_out_main_p_new1,
    input  wire [17:0] p_in_main_p2,
    input  wire [17:0] p_in_main_rhs2,
    output wire [17:0] p_out_main_p_new2,
    input  wire [17:0] p_in_main_p3,
    input  wire [17:0] p_in_main_rhs3,
    output wire [17:0] p_out_main_p_new3,
    output wire out_valid
);
    wire lane_valid_0;
    tytra_f0_sc u_lane_0 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_p(p_in_main_p0), .s_in_rhs(p_in_main_rhs0), .s_out_p_new(p_out_main_p_new0), .out_valid(lane_valid_0));
    wire lane_valid_1;
    tytra_f0_sc u_lane_1 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_p(p_in_main_p1), .s_in_rhs(p_in_main_rhs1), .s_out_p_new(p_out_main_p_new1), .out_valid(lane_valid_1));
    wire lane_valid_2;
    tytra_f0_sc u_lane_2 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_p(p_in_main_p2), .s_in_rhs(p_in_main_rhs2), .s_out_p_new(p_out_main_p_new2), .out_valid(lane_valid_2));
    wire lane_valid_3;
    tytra_f0_sc u_lane_3 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_p(p_in_main_p3), .s_in_rhs(p_in_main_rhs3), .s_out_p_new(p_out_main_p_new3), .out_valid(lane_valid_3));
    assign out_valid = lane_valid_0 & lane_valid_1 & lane_valid_2 & lane_valid_3;
endmodule
